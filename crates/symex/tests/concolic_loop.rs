//! End-to-end Symback tests: instrument → execute → replay → flip → solve →
//! adaptive seed. These close the concolic feedback loop of Algorithm 1.

use std::collections::HashSet;

use wasai_chain::abi::{ParamType, ParamValue};
use wasai_chain::asset::Asset;
use wasai_smt::{check, Budget, SolveResult};
use wasai_symex::{
    constraint_vars, flip_key, flip_queries, has_open_flip_target, seed_from_model, AssertImports,
    CondKind, Replayer,
};
use wasai_vm::{
    CompiledModule, Fuel, Host, HostFnId, Instance, LinearMemory, TraceRecord, TraceSink, Trap,
    Value,
};
use wasai_wasm::builder::ModuleBuilder;
use wasai_wasm::instr::{Instr, MemArg};
use wasai_wasm::types::{BlockType, FuncType, ValType::*};

/// Host serving the trace hooks plus a trapping `eosio_assert`.
struct TestHost {
    sink: TraceSink,
}

impl Host for TestHost {
    fn resolve(&mut self, module: &str, name: &str, _ty: &FuncType) -> Option<HostFnId> {
        if let Some(off) = wasai_vm::host::hooks::hook_offset(module, name) {
            return Some(HostFnId(off));
        }
        if module == "env" && name == "eosio_assert" {
            return Some(HostFnId(100));
        }
        None
    }

    fn call(
        &mut self,
        id: HostFnId,
        args: &[Value],
        _mem: &mut LinearMemory,
    ) -> Result<Option<Value>, Trap> {
        if id.0 < 100 {
            wasai_vm::host::hooks::dispatch(&mut self.sink, id.0, args);
            Ok(None)
        } else if args[0].as_i32() != 0 {
            Ok(None)
        } else {
            Err(Trap::AssertFailed("test".into()))
        }
    }
}

/// Run the instrumented form of `module` and return the trace (tolerates
/// traps — WASAI analyzes failing runs too).
fn trace_of(module: &wasai_wasm::Module, export: &str, args: &[Value]) -> Vec<TraceRecord> {
    let inst_mod = wasai_wasm::instrument::instrument(module).unwrap().module;
    let compiled = CompiledModule::compile(inst_mod).unwrap();
    let mut host = TestHost {
        sink: TraceSink::new(),
    };
    let mut instance = Instance::new(compiled, &mut host).unwrap();
    let mut fuel = Fuel(1_000_000);
    let _ = instance.invoke_export(&mut host, export, args, &mut fuel);
    host.sink.take()
}

/// Soundness of the open-target scan on one trace: the target key of every
/// conditional state the replay records is among the candidates the scan
/// reports, and with every key open the scan answers `true` exactly when it
/// has a candidate. Returns (conditional states, candidates).
fn assert_scan_covers_replay(
    module: &wasai_wasm::Module,
    action: u32,
    params: &[(ParamType, ParamValue)],
    trace: &[TraceRecord],
) -> (usize, usize) {
    let asserts = AssertImports::of(module);
    let outcome = Replayer::new(module, &asserts, action, 1, params).run(trace);
    let mut candidates = HashSet::new();
    let found = has_open_flip_target(module, &asserts, action, trace, |key| {
        candidates.insert(key);
        false
    });
    assert!(!found, "a scan with every key closed finds nothing open");
    for cond in &outcome.conditionals {
        let key = flip_key(cond.site, cond.kind, !cond.taken);
        assert!(
            candidates.contains(&key),
            "replay recorded {cond:?} (key {key:?}) but the scan never reported it"
        );
    }
    let any_open = has_open_flip_target(module, &asserts, action, trace, |_| true);
    assert_eq!(any_open, !candidates.is_empty());
    (outcome.conditionals.len(), candidates.len())
}

fn apply_args() -> [Value; 3] {
    [Value::I64(1), Value::I64(1), Value::I64(1)]
}

/// A contract whose action function branches on its i64 argument:
/// `action(self, x): if (x == 0xdeadbeef) hit() else miss()`.
fn branchy_contract() -> (wasai_wasm::Module, u32) {
    let mut b = ModuleBuilder::with_memory(1);
    let hit = b.func(&[], &[], &[], vec![Instr::Nop, Instr::End]);
    let miss = b.func(&[], &[], &[], vec![Instr::Nop, Instr::End]);
    let action = b.func(
        &[I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(1),
            Instr::I64Const(0xdeadbeef),
            Instr::I64Eq,
            Instr::If(BlockType::Empty),
            Instr::Call(hit),
            Instr::Else,
            Instr::Call(miss),
            Instr::End,
            Instr::End,
        ],
    );
    // apply(receiver, code, action_name) calls action(receiver, 7).
    let apply = b.func(
        &[I64, I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(7),
            Instr::Call(action),
            Instr::End,
        ],
    );
    b.export_func("apply", apply);
    (b.build(), action)
}

#[test]
fn replay_collects_branch_and_flip_solves_it() {
    let (module, action) = branchy_contract();
    let trace = trace_of(&module, "apply", &apply_args());
    assert!(!trace.is_empty());

    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    let asserts = AssertImports::of(&module);
    let replayer = Replayer::new(&module, &asserts, action, 1, &params);
    let outcome = replayer.run(&trace);
    assert_eq!(
        assert_scan_covers_replay(&module, action, &params, &trace),
        (1, 1)
    );

    // One conditional state: the `if` on x == 0xdeadbeef, not taken.
    assert_eq!(
        outcome.conditionals.len(),
        1,
        "conds: {:?}",
        outcome.conditionals
    );
    let cond = &outcome.conditionals[0];
    assert!(!cond.taken);
    assert_eq!(cond.kind, CondKind::Branch);

    // Flip it and solve: the model must assign x = 0xdeadbeef.
    let set = flip_queries(&outcome, &HashSet::new());
    assert_eq!(set.queries.len(), 1);
    let constraints = set.constraints_of(&set.queries[0]);
    let (res, _) = check(&outcome.pool, &constraints, Budget::default());
    let model = match res {
        SolveResult::Sat(m) => m,
        other => panic!("expected sat, got {other:?}"),
    };
    let vars = constraint_vars(&outcome.pool, &constraints);
    let new_seed = seed_from_model(&outcome.spec, &outcome.pool, &model, &vars);
    assert_eq!(new_seed, vec![ParamValue::U64(0xdeadbeef)]);
}

#[test]
fn adaptive_seed_actually_flips_the_branch() {
    // Close the loop: run with the adaptive value and check the replay now
    // takes the other direction.
    let (module, action) = branchy_contract();
    // Patch apply to pass 0xdeadbeef.
    let mut patched = module.clone();
    let apply_idx = patched.exported_func("apply").unwrap();
    let apply = patched.local_func_mut(apply_idx).unwrap();
    apply.body[1] = Instr::I64Const(0xdeadbeef);

    let trace = trace_of(&patched, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(0xdeadbeef))];
    let outcome =
        Replayer::new(&patched, &AssertImports::of(&patched), action, 1, &params).run(&trace);
    assert_scan_covers_replay(&patched, action, &params, &trace);
    assert!(outcome.conditionals[0].taken, "branch should now be taken");
}

#[test]
fn branch_coverage_accumulates_distinct_directions() {
    let (module, action) = branchy_contract();
    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    let outcome =
        Replayer::new(&module, &AssertImports::of(&module), action, 1, &params).run(&trace);
    assert_scan_covers_replay(&module, action, &params, &trace);
    // The if at (action, pc 3), direction false.
    assert!(outcome.branches.contains(&(action, 3, 0)));
    assert!(!outcome.branches.contains(&(action, 3, 1)));
    // Function chain records apply → action → miss.
    assert!(outcome.func_chain.len() >= 3);
}

#[test]
fn failing_assert_yields_satisfiable_flip() {
    // action(self, x): eosio_assert(x == 42, "…") — run with x = 7.
    let mut b = ModuleBuilder::with_memory(1);
    let assert_fn = b.import_func("env", "eosio_assert", &[I32, I32], &[]);
    let action = b.func(
        &[I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(1),
            Instr::I64Const(42),
            Instr::I64Eq,
            Instr::I32Const(0),
            Instr::Call(assert_fn),
            Instr::End,
        ],
    );
    let apply = b.func(
        &[I64, I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(7),
            Instr::Call(action),
            Instr::End,
        ],
    );
    b.export_func("apply", apply);
    let module = b.build();

    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    let outcome =
        Replayer::new(&module, &AssertImports::of(&module), action, 1, &params).run(&trace);
    assert_scan_covers_replay(&module, action, &params, &trace);
    let asserts: Vec<_> = outcome
        .conditionals
        .iter()
        .filter(|c| c.kind == CondKind::Assert)
        .collect();
    assert_eq!(
        asserts.len(),
        1,
        "failed assert must be a conditional state"
    );
    let set = flip_queries(&outcome, &HashSet::new());
    let q = set
        .queries
        .iter()
        .find(|q| q.kind == CondKind::Assert)
        .unwrap();
    let constraints = set.constraints_of(q);
    let (res, _) = check(&outcome.pool, &constraints, Budget::default());
    let model = res.model().expect("assert flip must be satisfiable");
    let vars = constraint_vars(&outcome.pool, &constraints);
    let seed = seed_from_model(&outcome.spec, &outcome.pool, model, &vars);
    assert_eq!(
        seed,
        vec![ParamValue::U64(42)],
        "solver finds the passing value"
    );
}

#[test]
fn asset_pointer_parameter_flows_through_memory() {
    // action(self, qty_ptr): amount = i64.load(qty_ptr);
    //   if (amount == 100000) hit.
    // The wrapper writes amount=77 at address 64 and calls action(1, 64).
    let mut b = ModuleBuilder::with_memory(1);
    let action = b.func(
        &[I64, I32],
        &[],
        &[],
        vec![
            Instr::LocalGet(1),
            Instr::I64Load(MemArg::default()),
            Instr::I64Const(100_000),
            Instr::I64Eq,
            Instr::If(BlockType::Empty),
            Instr::Nop,
            Instr::End,
            Instr::End,
        ],
    );
    let apply = b.func(
        &[I64, I64, I64],
        &[],
        &[],
        vec![
            // mem[64] = 77 (the executed seed's amount)
            Instr::I32Const(64),
            Instr::I64Const(77),
            Instr::I64Store(MemArg::default()),
            // mem[72] = symbol of "4,EOS"
            Instr::I32Const(72),
            Instr::I64Const(wasai_chain::asset::eos_symbol().raw() as i64),
            Instr::I64Store(MemArg::default()),
            Instr::LocalGet(0),
            Instr::I32Const(64),
            Instr::Call(action),
            Instr::End,
        ],
    );
    b.export_func("apply", apply);
    let module = b.build();

    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(
        ParamType::Asset,
        ParamValue::Asset(Asset::new(77, wasai_chain::asset::eos_symbol())),
    )];
    let outcome =
        Replayer::new(&module, &AssertImports::of(&module), action, 1, &params).run(&trace);
    assert_scan_covers_replay(&module, action, &params, &trace);
    assert_eq!(
        outcome.conditionals.len(),
        1,
        "amount comparison must be symbolic"
    );

    let set = flip_queries(&outcome, &HashSet::new());
    let constraints = set.constraints_of(&set.queries[0]);
    let (res, _) = check(&outcome.pool, &constraints, Budget::default());
    let model = res.model().expect("sat");
    let vars = constraint_vars(&outcome.pool, &constraints);
    let seed = seed_from_model(&outcome.spec, &outcome.pool, model, &vars);
    match &seed[0] {
        ParamValue::Asset(a) => {
            assert_eq!(a.amount, 100_000, "solved amount is \"10.0000 EOS\"");
            assert_eq!(
                a.symbol,
                wasai_chain::asset::eos_symbol(),
                "symbol untouched"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn nested_branches_build_path_constraints() {
    // action(self, x): if (x > 10) { if (x < 20) hit; }
    // Executed with x = 5: flipping the outer branch requires x > 10.
    let mut b = ModuleBuilder::with_memory(1);
    let action = b.func(
        &[I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(1),
            Instr::I64Const(10),
            Instr::I64GtS,
            Instr::If(BlockType::Empty),
            Instr::LocalGet(1),
            Instr::I64Const(20),
            Instr::I64LtS,
            Instr::If(BlockType::Empty),
            Instr::Nop,
            Instr::End,
            Instr::End,
            Instr::End,
        ],
    );
    let apply = b.func(
        &[I64, I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(5),
            Instr::Call(action),
            Instr::End,
        ],
    );
    b.export_func("apply", apply);
    let module = b.build();

    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::I64, ParamValue::I64(5))];
    let outcome =
        Replayer::new(&module, &AssertImports::of(&module), action, 1, &params).run(&trace);
    assert_scan_covers_replay(&module, action, &params, &trace);
    assert_eq!(outcome.conditionals.len(), 1, "only outer branch executed");
    let set = flip_queries(&outcome, &HashSet::new());
    let constraints = set.constraints_of(&set.queries[0]);
    let (res, _) = check(&outcome.pool, &constraints, Budget::default());
    let model = res.model().expect("sat");
    let vars = constraint_vars(&outcome.pool, &constraints);
    let seed = seed_from_model(&outcome.spec, &outcome.pool, model, &vars);
    match seed[0] {
        ParamValue::I64(v) => assert!(v > 10, "solved x = {v} must exceed 10"),
        ref other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn explored_directions_are_not_requeried() {
    let (module, action) = branchy_contract();
    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    let outcome =
        Replayer::new(&module, &AssertImports::of(&module), action, 1, &params).run(&trace);
    assert_scan_covers_replay(&module, action, &params, &trace);
    let mut explored = HashSet::new();
    explored.insert((action, 3u32, 1u64)); // other direction already seen
    assert!(flip_queries(&outcome, &explored).queries.is_empty());
}

#[test]
fn loops_replay_without_desync() {
    // action(self, n): count down from n, then if (n == 3) hit.
    let mut b = ModuleBuilder::with_memory(1);
    let action = b.func(
        &[I64, I64],
        &[],
        &[I64],
        vec![
            Instr::LocalGet(1),
            Instr::LocalSet(2),
            Instr::Block(BlockType::Empty),
            Instr::Loop(BlockType::Empty),
            Instr::LocalGet(2),
            Instr::I64Eqz,
            Instr::BrIf(1),
            Instr::LocalGet(2),
            Instr::I64Const(1),
            Instr::I64Sub,
            Instr::LocalSet(2),
            Instr::Br(0),
            Instr::End,
            Instr::End,
            Instr::LocalGet(1),
            Instr::I64Const(3),
            Instr::I64Eq,
            Instr::If(BlockType::Empty),
            Instr::Nop,
            Instr::End,
            Instr::End,
        ],
    );
    let apply = b.func(
        &[I64, I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(2),
            Instr::Call(action),
            Instr::End,
        ],
    );
    b.export_func("apply", apply);
    let module = b.build();

    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(2))];
    let outcome =
        Replayer::new(&module, &AssertImports::of(&module), action, 1, &params).run(&trace);
    assert_scan_covers_replay(&module, action, &params, &trace);
    // The loop exit br_if ran 3 times (n=2) plus the final == 3 check.
    let final_if = outcome.conditionals.last().unwrap();
    assert!(!final_if.taken);
    let set = flip_queries(&outcome, &HashSet::new());
    // Flipping the final if demands n == 3, which contradicts the executed
    // loop-trip count (n − 2 == 0 is on the path): must be Unsat. That is
    // how concolic execution learns a different trip count needs a
    // different trace.
    let q_last = set.queries.last().unwrap();
    let (res, _) = check(
        &outcome.pool,
        &set.constraints_of(q_last),
        Budget::default(),
    );
    assert_eq!(res, SolveResult::Unsat);
    // But flipping the FIRST loop-exit test (n == 0) is satisfiable.
    let c0 = set.constraints_of(&set.queries[0]);
    let (res0, _) = check(&outcome.pool, &c0, Budget::default());
    let m = res0.model().expect("sat");
    let vars = constraint_vars(&outcome.pool, &c0);
    let seed = seed_from_model(&outcome.spec, &outcome.pool, m, &vars);
    assert_eq!(seed, vec![ParamValue::U64(0)]);
}

#[test]
fn open_target_scan_follows_symbolic_arguments_into_callees() {
    // apply branches on a concrete value before entering the action;
    // action(self, x) passes x to check(x): if (x == 5) …. The only
    // conditional state sits in the callee, and the scan must report it.
    let mut b = ModuleBuilder::with_memory(1);
    let check = b.func(
        &[I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(5),
            Instr::I64Eq,
            Instr::If(BlockType::Empty),
            Instr::Nop,
            Instr::End,
            Instr::End,
        ],
    );
    let action = b.func(
        &[I64, I64],
        &[],
        &[],
        vec![Instr::LocalGet(1), Instr::Call(check), Instr::End],
    );
    let apply = b.func(
        &[I64, I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Eqz,
            Instr::If(BlockType::Empty),
            Instr::Nop,
            Instr::End,
            Instr::LocalGet(0),
            Instr::I64Const(7),
            Instr::Call(action),
            Instr::End,
        ],
    );
    b.export_func("apply", apply);
    let module = b.build();

    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    assert_eq!(
        assert_scan_covers_replay(&module, action, &params, &trace),
        (1, 1)
    );
}

#[test]
fn open_target_scan_reports_nothing_for_a_trace_that_never_enters_the_action() {
    // With x = 7 the `if` calls `miss`, never `hit`: installing the inputs
    // at `hit` leaves every replayed value concrete.
    let (module, _) = branchy_contract();
    let hit = 0;
    let trace = trace_of(&module, "apply", &apply_args());
    assert!(!trace
        .iter()
        .any(|r| matches!(r.kind, wasai_vm::TraceKind::FuncBegin { func } if func == hit)));
    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    assert_eq!(
        assert_scan_covers_replay(&module, hit, &params, &trace),
        (0, 0)
    );
}

#[test]
fn open_target_scan_covers_wild_corpus_replays() {
    // Drive wild contracts through the engine's harness (the official
    // transfer notification plus every declared action, random arguments)
    // and check the scan against the replay at the located action
    // function, and at every other function the trace enters.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wasai_chain::name::Name;
    use wasai_core::harness::{self, accounts};
    use wasai_core::{PreparedTarget, TargetInfo};
    use wasai_corpus::{wild_corpus, WildRates};

    let mut rng = StdRng::seed_from_u64(13);
    let (mut conditionals, mut traces) = (0, 0);
    for contract in wild_corpus(21, 8, WildRates::default()) {
        let module = contract.deployed.module;
        let abi = contract.deployed.abi;
        let prepared = PreparedTarget::prepare(TargetInfo {
            original: module.clone(),
            abi: abi.clone(),
        })
        .expect("wild contracts prepare");
        for decl in &abi.actions {
            for _ in 0..3 {
                let seed = wasai_core::seed::random_seed(&mut rng, decl, accounts::target());
                let (tx, params) = if decl.name == Name::new("transfer") {
                    let p = harness::forced_transfer_params(
                        &seed.params,
                        accounts::attacker(),
                        accounts::target(),
                    );
                    (harness::official_transfer(&p), p)
                } else {
                    (harness::direct_action(decl.name, &seed.params), seed.params)
                };
                let mut chain = prepared.fork_chain().expect("fork");
                let trace = match chain.push_transaction(&tx) {
                    Ok(r) => r.trace,
                    Err(e) => e.receipt.trace,
                };
                let Some(action) = harness::locate_action_function(&module, &trace) else {
                    continue;
                };
                let pairs: Vec<_> = decl.params.iter().copied().zip(params).collect();
                traces += 1;
                conditionals += assert_scan_covers_replay(&module, action, &pairs, &trace).0;
                let mut entered: Vec<u32> = trace
                    .iter()
                    .filter_map(|r| match r.kind {
                        wasai_vm::TraceKind::FuncBegin { func } => Some(func),
                        _ => None,
                    })
                    .collect();
                entered.sort_unstable();
                entered.dedup();
                for func in entered {
                    assert_scan_covers_replay(&module, func, &pairs, &trace);
                }
            }
        }
    }
    assert!(
        traces >= 20,
        "only {traces} traces reached an action function"
    );
    assert!(conditionals > 0, "no trace produced a conditional state");
}
