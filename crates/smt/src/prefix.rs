//! Shared-prefix incremental solving for flip-query families.
//!
//! WASAI's adaptive-seed loop (§3.4.4) flips the conditionals of one trace
//! in execution order, so the i-th query asserts `path[..nᵢ] ∧ flipᵢ` with
//! nondecreasing `nᵢ`: every query's prefix extends the previous one. A
//! [`PrefixSolver`] blasts that chain of path constraints *once* into a
//! shared [`BitBlaster`]/SAT instance, and answers each query by forking
//! the instance ([`Clone`]) and adding only the flipped condition — N flips
//! of one trace cost one prefix blast instead of N.
//!
//! # Why determinism survives
//!
//! The fork inherits exactly the clause database, trail, counters and gate
//! caches that a from-scratch [`check`] of `path[..nᵢ]` would have built
//! (same assertion order, same preprocessing, hash-consed term identity),
//! so extending it with `flipᵢ` and solving yields bit-identical results
//! *and* [`SolveStats`] — the reuse layer is observationally invisible, and
//! campaign reports stay byte-identical whether it is on or off. What is
//! saved is real work: the prefix's unit propagations and Tseitin gate
//! construction happen once; [`PrefixSolver::performed_propagations`]
//! counts only the propagations actually executed, which the solver
//! microbench compares against the from-scratch total.
//!
//! # Lazy advance
//!
//! A query answered from a cache still moves the session forward
//! ([`PrefixSolver::advance`]), so later queries see one session state
//! whoever answered the earlier ones. That move is only a claim: `advance`
//! records how much of the chain the session now covers, and the blasting
//! is deferred until a [`solve`](PrefixSolver::solve) needs the instance.
//! The solve then asserts the claimed-but-unblasted items in chain order,
//! followed by its own extension — the same assertion sequence an eager
//! advance would have produced, so results and [`SolveStats`] are
//! unchanged, and a replay whose queries all hit a cache blasts nothing.
//!
//! [`solve_assuming`](PrefixSolver::solve_assuming) is the classic
//! alternative: one persistent SAT instance, each flip decided as a SAT
//! *assumption* ([`crate::sat::SatSolver::solve_with_assumptions`]), learnt
//! clauses shared across queries. It agrees with `check` on verdicts (and
//! its models satisfy the constraints) but not on statistics — learnt
//! clauses and activities carry over — so the engine uses the fork path and
//! reserves assumptions for callers that only need verdicts fast.
//!
//! [`solve_sharing`](PrefixSolver::solve_sharing) is the third mode:
//! fork-per-query like `solve`, but learnt clauses that mention only
//! shared-prefix variables are harvested after each fork and injected into
//! the next — so sibling flips of one campaign family stop rediscovering
//! the same prefix conflicts. Verdict-identical to `check`; statistics are
//! not (the injected clauses change the search), so the engine's
//! byte-identity path still uses `solve`.
//!
//! The query paths are **mutually exclusive on one session**:
//! `solve_assuming` Tseitin-encodes each flip's gates into the persistent
//! instance, so a later [`solve`](PrefixSolver::solve) would fork an
//! instance carrying extra gates and silently lose its bit-identity
//! guarantee — and `solve_sharing`'s stats are pool-dependent. The session
//! latches whichever mode answers its first query and panics if another is
//! used afterwards.

use std::collections::HashSet;

use crate::bitblast::BitBlaster;
use crate::sat::Lit;
use crate::solver::{result_of, stats_of, Budget, Model, SolveResult, SolveStats};
use crate::term::{TermId, TermPool};

/// Which query API a session has committed to (see the module docs on why
/// the fork and assumption paths must not share one instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionMode {
    /// [`PrefixSolver::solve`]: fork per query, bit-identical to `check`.
    Fork,
    /// [`PrefixSolver::solve_assuming`]: persistent instance, assumptions.
    Assume,
    /// [`PrefixSolver::solve_sharing`]: fork per query, learnt prefix-only
    /// clauses carried between forks.
    Share,
}

/// A solver session over one replay's path-constraint chain.
pub struct PrefixSolver<'p> {
    pool: &'p TermPool,
    bb: BitBlaster<'p>,
    /// Raw prefix items consumed so far (slices passed to later calls must
    /// extend the earlier ones — debug-asserted).
    #[cfg(debug_assertions)]
    raw: Vec<TermId>,
    /// Raw prefix length claimed through [`PrefixSolver::advance`] or a
    /// query; the contract point later slices must extend.
    claimed: usize,
    /// Raw prefix items actually blasted into `bb` (≤ `claimed`; the rest
    /// is blasted by the next query that needs the instance).
    raw_seen: usize,
    /// Effective (post-preprocessing) constraints asserted into `bb`.
    asserted: usize,
    seen: HashSet<TermId>,
    /// Raw index of the first constant-false prefix item, if one was seen:
    /// every query whose prefix reaches it is unsat without touching `bb`.
    false_at: Option<usize>,
    started: bool,
    /// Latched by the first query; mixing modes afterwards panics.
    mode: Option<SessionMode>,
    forks: u64,
    work_props: u64,
    /// Learnt clauses harvested from earlier forks (Share mode only). Each
    /// mentions only variables the shared instance owned when its fork was
    /// taken, so it is implied by the prefix alone and sound to inject into
    /// any later fork of the same family.
    shared_clauses: Vec<Vec<Lit>>,
    /// Sorted-literal fingerprints of `shared_clauses`, for dedup.
    shared_seen: HashSet<Vec<Lit>>,
}

impl<'p> PrefixSolver<'p> {
    /// A fresh session over `pool`.
    pub fn new(pool: &'p TermPool) -> Self {
        PrefixSolver {
            pool,
            bb: BitBlaster::new(pool),
            #[cfg(debug_assertions)]
            raw: Vec::new(),
            claimed: 0,
            raw_seen: 0,
            asserted: 0,
            seen: HashSet::new(),
            false_at: None,
            started: false,
            mode: None,
            forks: 0,
            work_props: 0,
            shared_clauses: Vec::new(),
            shared_seen: HashSet::new(),
        }
    }

    /// Commit the session to one query API; panics on a mode mix, which
    /// would silently void [`solve`](PrefixSolver::solve)'s bit-identity
    /// guarantee (the check is always on — it is one comparison per query).
    fn latch_mode(&mut self, mode: SessionMode) {
        match self.mode {
            None => self.mode = Some(mode),
            Some(m) => assert!(
                m == mode,
                "PrefixSolver: solve and solve_assuming are mutually \
                 exclusive on one session (started in {m:?} mode, got a \
                 {mode:?} query)"
            ),
        }
    }

    /// True once the session has claimed any prefix (through
    /// [`advance`](PrefixSolver::advance) or a query that reached the
    /// solver) — the "this query extends an existing instance" telemetry
    /// signal. Blasting is lazy, so this does not mean any work was done.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Queries answered by forking the shared instance.
    pub fn forks(&self) -> u64 {
        self.forks
    }

    /// Unit propagations actually executed by this session (shared prefix
    /// propagation counted once, plus each fork's own work) — the honest
    /// cost, as opposed to the per-query [`SolveStats::propagations`] which
    /// deliberately report the from-scratch-equivalent figure.
    pub fn performed_propagations(&self) -> u64 {
        self.work_props
    }

    /// Enforce the nondecreasing-prefix contract. The length comparison is
    /// always on — a shorter prefix would silently inherit stale asserted
    /// constraints from the longer one, corrupting answers rather than
    /// crashing, so it must fail loudly in release builds too. The
    /// element-wise comparison (contents actually extend) is debug-only.
    fn check_extends(&self, prefix: &[TermId]) {
        assert!(
            prefix.len() >= self.claimed,
            "prefix slices must extend previously seen ones \
             (got {} items after consuming {})",
            prefix.len(),
            self.claimed
        );
        #[cfg(debug_assertions)]
        assert!(
            prefix[..self.claimed] == self.raw[..],
            "prefix slices must extend previously seen ones \
             (same length, diverging contents)"
        );
    }

    /// Scan for a constant-false item in `prefix ∧ delta` (the from-scratch
    /// fast path), latching the earliest prefix position seen.
    fn trivially_false(&mut self, prefix: &[TermId], delta: Option<TermId>) -> bool {
        if let Some(p) = self.false_at {
            if prefix.len() > p {
                return true;
            }
        }
        for (i, &c) in prefix.iter().enumerate().skip(self.claimed) {
            if self.pool.as_const(c) == Some(0) {
                let earliest = self.false_at.map_or(i, |p| p.min(i));
                self.false_at = Some(earliest);
                return true;
            }
        }
        delta.is_some_and(|d| self.pool.as_const(d) == Some(0))
    }

    /// Claim `prefix` as consumed without blasting it: the next
    /// [`solve`](PrefixSolver::solve) blasts every claimed item it has not
    /// yet asserted, in chain order, before its own. Used when a cache hit
    /// skips the solve but the session must keep pace. Only the
    /// constant-false scan runs here, so `advance` alone does no SAT work.
    pub fn advance(&mut self, prefix: &[TermId]) {
        self.check_extends(prefix);
        if self.trivially_false(prefix, None) {
            return;
        }
        self.started = true;
        #[cfg(debug_assertions)]
        self.raw.extend_from_slice(&prefix[self.claimed..]);
        self.claimed = prefix.len();
    }

    /// [`advance`](PrefixSolver::advance) over `prefix`, then blast every
    /// claimed item not yet in the shared instance (trivial and repeated
    /// constraints are skipped, mirroring
    /// [`check`](crate::solver::check)'s preprocessing).
    fn advance_and_blast(&mut self, prefix: &[TermId]) {
        self.advance(prefix);
        let before = self.bb.sat.propagations;
        for &c in &prefix[self.raw_seen..self.claimed] {
            if self.pool.as_const(c) == Some(1) {
                continue;
            }
            if self.seen.insert(c) {
                self.bb.assert_true(c);
                self.asserted += 1;
            }
        }
        self.raw_seen = self.claimed;
        self.work_props += self.bb.sat.propagations - before;
    }

    /// Solve `prefix ∧ delta` under `budget`, bit-identically (result and
    /// statistics) to `check(pool, prefix + [delta], budget)`.
    ///
    /// # Panics
    ///
    /// Panics if this session already answered a
    /// [`solve_assuming`](PrefixSolver::solve_assuming) query — the
    /// assumption path mutates the shared instance, which would void the
    /// bit-identity guarantee here (see the module docs).
    pub fn solve(
        &mut self,
        prefix: &[TermId],
        delta: TermId,
        budget: Budget,
    ) -> (SolveResult, SolveStats) {
        self.latch_mode(SessionMode::Fork);
        if self.trivially_false(prefix, Some(delta)) {
            return (SolveResult::Unsat, SolveStats::default());
        }
        self.advance_and_blast(prefix);
        let delta_dropped = self.pool.as_const(delta) == Some(1) || self.seen.contains(&delta);
        if self.asserted == 0 && delta_dropped {
            return (SolveResult::Sat(Model::default()), SolveStats::default());
        }
        // Fork the shared prefix instance and extend with just the flip.
        let base_props = self.bb.sat.propagations;
        let mut fork = self.bb.clone();
        self.forks += 1;
        wasai_obs::inc(wasai_obs::Counter::PrefixForks);
        if !delta_dropped {
            fork.assert_true(delta);
        }
        let outcome = fork.sat.solve(budget.max_conflicts, budget.deadline);
        self.work_props += fork.sat.propagations - base_props;
        let stats = stats_of(&fork);
        (result_of(self.pool, &fork, outcome), stats)
    }

    /// Solve `prefix ∧ delta` by deciding the flipped condition as a SAT
    /// *assumption* on the persistent shared instance (no fork; learnt
    /// clauses accumulate across queries).
    ///
    /// Agrees with [`check`](crate::solver::check) on the verdict, and any
    /// model satisfies the constraints — but statistics and model values may
    /// differ from a from-scratch solve, so the deterministic campaign path
    /// uses [`PrefixSolver::solve`] instead.
    ///
    /// # Panics
    ///
    /// Panics if this session already answered a
    /// [`solve`](PrefixSolver::solve) query: the flip gates blasted here
    /// persist in the shared instance, so the two APIs are mutually
    /// exclusive per session (see the module docs).
    pub fn solve_assuming(
        &mut self,
        prefix: &[TermId],
        delta: TermId,
        budget: Budget,
    ) -> (SolveResult, SolveStats) {
        self.latch_mode(SessionMode::Assume);
        if self.trivially_false(prefix, Some(delta)) {
            return (SolveResult::Unsat, SolveStats::default());
        }
        self.advance_and_blast(prefix);
        let delta_dropped = self.pool.as_const(delta) == Some(1) || self.seen.contains(&delta);
        if self.asserted == 0 && delta_dropped {
            return (SolveResult::Sat(Model::default()), SolveStats::default());
        }
        let base_props = self.bb.sat.propagations;
        let assumptions: Vec<_> = if delta_dropped {
            Vec::new()
        } else {
            vec![self.bb.blast_bool(delta)]
        };
        let outcome =
            self.bb
                .sat
                .solve_with_assumptions(&assumptions, budget.max_conflicts, budget.deadline);
        self.work_props += self.bb.sat.propagations - base_props;
        let stats = stats_of(&self.bb);
        let result = result_of(self.pool, &self.bb, outcome);
        self.bb.sat.backtrack_root();
        (result, stats)
    }

    /// Learnt clauses currently in the sharing pool (Share mode).
    pub fn shared_clause_count(&self) -> usize {
        self.shared_clauses.len()
    }

    /// Solve `prefix ∧ delta` on a fork of the shared instance, carrying
    /// learnt clauses *between* forks of this campaign family.
    ///
    /// Each query forks like [`PrefixSolver::solve`], but (1) the fork is
    /// seeded with every clause earlier forks learnt about the shared
    /// prefix, and (2) after solving, newly learnt clauses that mention
    /// only prefix variables are harvested into the pool for future forks.
    ///
    /// # Why the harvest is sound
    ///
    /// The flip is decided as a SAT *assumption*, never asserted as a unit
    /// clause, so the fork's clause database is exactly: the shared prefix
    /// clauses, the pool (inductively implied by the prefix), and Tseitin
    /// gate definitions (conservative: each defines a fresh variable).
    /// CDCL learns only resolvents of database clauses — assumptions, being
    /// decisions, are never resolved in — so every learnt clause is implied
    /// by that database. A learnt clause restricted to variables the shared
    /// instance owned *before* the fork mentions no defined-fresh variable,
    /// and a clause over old variables implied by a conservative extension
    /// is implied by the prefix alone. Hence it holds in every sibling
    /// fork, whatever flip that sibling assumes.
    ///
    /// Verdict-identical to [`check`](crate::solver::check) (and Sat models
    /// satisfy the constraints), but the injected clauses change the search,
    /// so statistics are *not* from-scratch-identical — like
    /// [`solve_assuming`](PrefixSolver::solve_assuming), this mode is for
    /// callers that want verdicts fast, not for the byte-identity engine
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if this session already answered queries in another mode.
    pub fn solve_sharing(
        &mut self,
        prefix: &[TermId],
        delta: TermId,
        budget: Budget,
    ) -> (SolveResult, SolveStats) {
        self.latch_mode(SessionMode::Share);
        if self.trivially_false(prefix, Some(delta)) {
            return (SolveResult::Unsat, SolveStats::default());
        }
        self.advance_and_blast(prefix);
        let delta_dropped = self.pool.as_const(delta) == Some(1) || self.seen.contains(&delta);
        if self.asserted == 0 && delta_dropped {
            return (SolveResult::Sat(Model::default()), SolveStats::default());
        }
        // Variables the shared instance owns right now: the harvest
        // boundary. Anything at or above this index is fork-local.
        let prefix_vars = self.bb.sat.num_vars();
        let base_props = self.bb.sat.propagations;
        let mut fork = self.bb.clone();
        self.forks += 1;
        wasai_obs::inc(wasai_obs::Counter::PrefixForks);
        for clause in &self.shared_clauses {
            // A pool clause can only conflict if the prefix itself is
            // unsat, in which case the solve below reports exactly that.
            let _ = fork.sat.add_clause(clause);
        }
        let injected_at = fork.sat.num_clauses();
        let assumptions: Vec<Lit> = if delta_dropped {
            Vec::new()
        } else {
            vec![fork.blast_bool(delta)]
        };
        let outcome =
            fork.sat
                .solve_with_assumptions(&assumptions, budget.max_conflicts, budget.deadline);
        self.work_props += fork.sat.propagations - base_props;
        // Harvest: learnt clauses over prefix variables only. Gate clauses
        // from blasting `delta` always mention the fresh gate variable, so
        // the variable filter excludes them naturally.
        for id in injected_at..fork.sat.num_clauses() {
            let clause = fork.sat.clause(id);
            if clause.iter().all(|l| (l.var() as usize) < prefix_vars) {
                let mut fingerprint = clause.to_vec();
                fingerprint.sort_by_key(|l| l.0);
                if self.shared_seen.insert(fingerprint) {
                    self.shared_clauses.push(clause.to_vec());
                }
            }
        }
        let stats = stats_of(&fork);
        (result_of(self.pool, &fork, outcome), stats)
    }
}

impl std::fmt::Debug for PrefixSolver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixSolver")
            .field("claimed", &self.claimed)
            .field("raw_seen", &self.raw_seen)
            .field("asserted", &self.asserted)
            .field("mode", &self.mode)
            .field("forks", &self.forks)
            .field("work_props", &self.work_props)
            .field("shared_clauses", &self.shared_clauses.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::check;
    use crate::term::{BvOp, CmpOp};

    /// Build a replay-like family: a chain of path guards over `arg` vars
    /// plus one flip per step, nondecreasing prefixes. The `salt` index
    /// randomizes constants (deterministic LCG).
    fn flip_family(pool: &mut TermPool, steps: usize, salt: u64) -> (Vec<TermId>, Vec<TermId>) {
        let mut rng = salt.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let a = pool.var("arg0", 64);
        let b = pool.var("arg1", 64);
        let mut path = Vec::new();
        let mut flips = Vec::new();
        for i in 0..steps {
            let k = pool.bv_const(next() % 1000 + 1, 64);
            let guard = match i % 3 {
                0 => pool.cmp(CmpOp::Ult, a, k),
                1 => {
                    let s = pool.bv(BvOp::Add, a, b);
                    pool.cmp(CmpOp::Ule, s, k)
                }
                _ => {
                    let x = pool.bv(BvOp::Xor, a, b);
                    let z = pool.bv_const(next() % 7, 64);
                    pool.cmp(CmpOp::Ule, z, x)
                }
            };
            path.push(guard);
            flips.push(pool.not(guard));
        }
        (path, flips)
    }

    #[test]
    fn fork_path_is_bit_identical_to_from_scratch() {
        for salt in 0..4u64 {
            let mut pool = TermPool::new();
            let (path, flips) = flip_family(&mut pool, 12, salt);
            let mut session = PrefixSolver::new(&pool);
            for (i, &flip) in flips.iter().enumerate() {
                let mut scratch: Vec<TermId> = path[..i].to_vec();
                scratch.push(flip);
                let (want_res, want_stats) = check(&pool, &scratch, Budget::default());
                let (got_res, got_stats) = session.solve(&path[..i], flip, Budget::default());
                assert_eq!(want_res, got_res, "salt {salt} flip {i}: result diverged");
                assert_eq!(
                    want_stats, got_stats,
                    "salt {salt} flip {i}: stats diverged"
                );
            }
        }
    }

    #[test]
    fn lazy_advances_then_solve_match_from_scratch() {
        // Two cache-hit advances, then a real solve over a longer prefix:
        // the solve blasts both claimed stretches and its own extension in
        // chain order, so it must equal a from-scratch check exactly.
        for salt in 0..4u64 {
            let mut pool = TermPool::new();
            let (path, flips) = flip_family(&mut pool, 12, salt);
            for (p1, p2, p3) in [(2, 5, 9), (0, 0, 4), (3, 3, 3), (4, 11, 11)] {
                let mut session = PrefixSolver::new(&pool);
                session.advance(&path[..p1]);
                session.advance(&path[..p2]);
                let mut scratch: Vec<TermId> = path[..p3].to_vec();
                scratch.push(flips[p3]);
                let want = check(&pool, &scratch, Budget::default());
                let got = session.solve(&path[..p3], flips[p3], Budget::default());
                assert_eq!(want, got, "salt {salt}, prefixes {p1}/{p2}/{p3}");
            }
        }
    }

    #[test]
    fn advance_alone_does_no_solver_work() {
        let mut pool = TermPool::new();
        let (path, _) = flip_family(&mut pool, 12, 3);
        let mut session = PrefixSolver::new(&pool);
        session.advance(&path[..4]);
        session.advance(&path);
        assert!(session.started(), "a claimed prefix starts the session");
        assert_eq!(session.performed_propagations(), 0);
        assert_eq!(session.forks(), 0);
    }

    #[test]
    fn constant_false_prefix_claimed_by_advance_answers_unsat() {
        let mut pool = TermPool::new();
        let (mut path, flips) = flip_family(&mut pool, 4, 5);
        path.insert(2, pool.bool_const(false));
        let mut session = PrefixSolver::new(&pool);
        session.advance(&path[..2]);
        session.advance(&path);
        let (res, stats) = session.solve(&path, flips[3], Budget::default());
        assert_eq!(res, SolveResult::Unsat);
        assert_eq!(stats, SolveStats::default());
        // Prefixes that stop short of the false item still solve normally.
        let mut session = PrefixSolver::new(&pool);
        session.advance(&path[..2]);
        let mut scratch: Vec<TermId> = path[..2].to_vec();
        scratch.push(flips[2]);
        let want = check(&pool, &scratch, Budget::default());
        assert_eq!(want, session.solve(&path[..2], flips[2], Budget::default()));
    }

    #[test]
    fn fork_path_saves_propagations() {
        let mut pool = TermPool::new();
        let (path, flips) = flip_family(&mut pool, 16, 7);
        let mut scratch_props = 0u64;
        for (i, &flip) in flips.iter().enumerate() {
            let mut q: Vec<TermId> = path[..i].to_vec();
            q.push(flip);
            let (_, stats) = check(&pool, &q, Budget::default());
            scratch_props += stats.propagations;
        }
        let mut session = PrefixSolver::new(&pool);
        for (i, &flip) in flips.iter().enumerate() {
            session.solve(&path[..i], flip, Budget::default());
        }
        assert!(
            session.performed_propagations() < scratch_props,
            "shared prefix must do less propagation work: {} vs {}",
            session.performed_propagations(),
            scratch_props
        );
    }

    #[test]
    fn assumption_path_agrees_with_from_scratch_on_randomized_family() {
        // The satellite contract: assumption-based incremental solving gives
        // the same verdict as a from-scratch check on a flip-query family
        // randomized by index, and its Sat models satisfy the constraints.
        for salt in 0..6u64 {
            let mut pool = TermPool::new();
            let (path, flips) = flip_family(&mut pool, 10, salt);
            let mut session = PrefixSolver::new(&pool);
            for (i, &flip) in flips.iter().enumerate() {
                let mut scratch: Vec<TermId> = path[..i].to_vec();
                scratch.push(flip);
                let (want, _) = check(&pool, &scratch, Budget::default());
                let (got, _) = session.solve_assuming(&path[..i], flip, Budget::default());
                assert_eq!(
                    want.kind(),
                    got.kind(),
                    "salt {salt} flip {i}: verdict diverged"
                );
                if let SolveResult::Sat(m) = &got {
                    let vals = m.to_vec(&pool);
                    for &c in &scratch {
                        assert_eq!(
                            pool.eval(c, &vals),
                            1,
                            "salt {salt} flip {i}: assumption model violates a constraint"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharing_path_agrees_with_from_scratch_on_randomized_family() {
        // Clause sharing changes the search, never the verdict; Sat models
        // must still satisfy every constraint of the query they answer.
        for salt in 0..6u64 {
            let mut pool = TermPool::new();
            let (path, flips) = flip_family(&mut pool, 10, salt);
            let mut session = PrefixSolver::new(&pool);
            for (i, &flip) in flips.iter().enumerate() {
                let mut scratch: Vec<TermId> = path[..i].to_vec();
                scratch.push(flip);
                let (want, _) = check(&pool, &scratch, Budget::default());
                let (got, _) = session.solve_sharing(&path[..i], flip, Budget::default());
                assert_eq!(
                    want.kind(),
                    got.kind(),
                    "salt {salt} flip {i}: verdict diverged"
                );
                if let SolveResult::Sat(m) = &got {
                    let vals = m.to_vec(&pool);
                    for &c in &scratch {
                        assert_eq!(
                            pool.eval(c, &vals),
                            1,
                            "salt {salt} flip {i}: sharing model violates a constraint"
                        );
                    }
                }
            }
        }
    }

    /// A flip family whose prefix pins a *bounded* factoring constraint
    /// (`a·b = K, 2 ≤ a,b < 64`): bounding the operands defeats the
    /// modular-wraparound shortcut, so CDCL genuinely searches and learns
    /// non-unit clauses — unlike the BCP-trivial [`flip_family`].
    fn hard_family(pool: &mut TermPool, steps: usize, salt: u64) -> (Vec<TermId>, Vec<TermId>) {
        let mut rng = salt.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let a = pool.var("arg0", 12);
        let b = pool.var("arg1", 12);
        let product = pool.bv(BvOp::Mul, a, b);
        let k = pool.bv_const((next() % 50 + 13) * (next() % 40 + 11), 12);
        let lim = pool.bv_const(64, 12);
        let two = pool.bv_const(2, 12);
        let mut path = vec![
            pool.eq(product, k),
            pool.cmp(CmpOp::Ult, a, lim),
            pool.cmp(CmpOp::Ult, b, lim),
            pool.cmp(CmpOp::Ule, two, a),
            pool.cmp(CmpOp::Ule, two, b),
        ];
        for i in 0..steps {
            let k = pool.bv_const(next() % 60 + 2, 12);
            let guard = if i % 2 == 0 {
                pool.cmp(CmpOp::Ult, a, k)
            } else {
                let x = pool.bv(BvOp::Xor, a, b);
                pool.cmp(CmpOp::Ule, x, k)
            };
            path.push(guard);
        }
        let flips = path.iter().map(|&g| pool.not(g)).collect();
        (path, flips)
    }

    #[test]
    fn sharing_harvests_prefix_clauses_between_forks() {
        // A family whose flips force conflicts on the shared prefix: the
        // pool must actually accumulate clauses (otherwise the mode is a
        // silent no-op), every fork must still agree with a from-scratch
        // check, and Sat models must satisfy the constraints.
        let mut harvested_any = false;
        for salt in 0..4u64 {
            let mut pool = TermPool::new();
            let (path, flips) = hard_family(&mut pool, 6, salt);
            let mut session = PrefixSolver::new(&pool);
            for (i, &flip) in flips.iter().enumerate() {
                let mut scratch: Vec<TermId> = path[..i].to_vec();
                scratch.push(flip);
                let (want, _) = check(&pool, &scratch, Budget::default());
                let (got, _) = session.solve_sharing(&path[..i], flip, Budget::default());
                assert_eq!(want.kind(), got.kind(), "salt {salt} flip {i}");
                if let SolveResult::Sat(m) = &got {
                    let vals = m.to_vec(&pool);
                    for &c in &scratch {
                        assert_eq!(pool.eval(c, &vals), 1, "salt {salt} flip {i}");
                    }
                }
            }
            harvested_any |= session.shared_clause_count() > 0;
        }
        assert!(
            harvested_any,
            "no salt produced a single shared clause — harvest is broken"
        );
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn mixing_sharing_then_fork_queries_panics() {
        let mut pool = TermPool::new();
        let (path, flips) = flip_family(&mut pool, 3, 0);
        let mut session = PrefixSolver::new(&pool);
        session.solve_sharing(&path[..1], flips[1], Budget::default());
        session.solve(&path[..2], flips[2], Budget::default());
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn mixing_assumption_then_fork_queries_panics() {
        // solve_assuming blasts flip gates into the persistent instance, so
        // a later solve() would fork polluted state — the session must
        // refuse loudly instead of silently losing bit-identity.
        let mut pool = TermPool::new();
        let (path, flips) = flip_family(&mut pool, 3, 0);
        let mut session = PrefixSolver::new(&pool);
        session.solve_assuming(&path[..1], flips[1], Budget::default());
        session.solve(&path[..2], flips[2], Budget::default());
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn mixing_fork_then_assumption_queries_panics() {
        let mut pool = TermPool::new();
        let (path, flips) = flip_family(&mut pool, 3, 0);
        let mut session = PrefixSolver::new(&pool);
        session.solve(&path[..1], flips[1], Budget::default());
        session.solve_assuming(&path[..2], flips[2], Budget::default());
    }

    #[test]
    #[should_panic(expected = "extend previously seen")]
    fn shrinking_prefix_fails_loudly() {
        // The nondecreasing-prefix contract must hold in release builds
        // too: a shorter prefix would silently reuse stale constraints
        // asserted for the longer one.
        let mut pool = TermPool::new();
        let (path, flips) = flip_family(&mut pool, 3, 1);
        let mut session = PrefixSolver::new(&pool);
        session.solve(&path[..2], flips[2], Budget::default());
        session.solve(&path[..1], flips[1], Budget::default());
    }

    #[test]
    fn trivial_prefix_queries_match_check_fast_paths() {
        let mut pool = TermPool::new();
        let t = pool.bool_const(true);
        let f = pool.bool_const(false);
        let x = pool.var("x", 8);
        let c = pool.bv_const(3, 8);
        let real = pool.eq(x, c);

        let mut session = PrefixSolver::new(&pool);
        // All-trivial query: Sat, default model, no blasting.
        let (res, stats) = session.solve(&[t], t, Budget::default());
        assert_eq!(res, SolveResult::Sat(Model::default()));
        assert_eq!(stats, SolveStats::default());
        // Constant-false delta: Unsat without touching the shared instance.
        let (res, stats) = session.solve(&[t], f, Budget::default());
        assert_eq!(res, SolveResult::Unsat);
        assert_eq!(stats, SolveStats::default());
        // The session still answers real queries afterwards.
        let (res, _) = session.solve(&[t, real], real, Budget::default());
        assert!(matches!(res, SolveResult::Sat(_)));
        // A constant-false in the prefix poisons longer prefixes only.
        let (res, _) = session.solve(&[t, real, f], real, Budget::default());
        assert_eq!(res, SolveResult::Unsat);
    }
}
