//! Metric exposition: Prometheus text format v0.0.4 and a one-shot JSON
//! dump, both rendered from a registry snapshot.
//!
//! The two renderers share the same metric families and label sets (see
//! [`crate::registry`]) so a scraped `/metrics` page, a `--metrics-dump`
//! file, and `wasai stats --format json` all correlate by name.

use crate::registry::{
    Counter, Gauge, HistSnapshot, Histogram, Registry, BUCKET_BOUNDS_US, NUM_BUCKETS,
};
use crate::snapshot::RegistrySnapshot;
use std::fmt::Write as _;

/// Escape a label value per the Prometheus text format: backslash, double
/// quote, and newline must be escaped inside the quoted value.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape a HELP string: backslash and newline (but not quotes) are escaped.
pub fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn series_name(family: &str, label: Option<(&str, &str)>) -> String {
    series_name_sharded(family, label, None)
}

/// Series name with an optional trailing `shard="N"` label — the fleet
/// exposition's per-worker series. `None` renders the plain (fleet-total)
/// series, so single-registry pages are byte-identical to the pre-fleet
/// format.
fn series_name_sharded(family: &str, label: Option<(&str, &str)>, shard: Option<usize>) -> String {
    let mut labels: Vec<String> = Vec::new();
    if let Some((k, v)) = label {
        labels.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if let Some(n) = shard {
        labels.push(format!("shard=\"{n}\""));
    }
    if labels.is_empty() {
        family.to_string()
    } else {
        format!("{family}{{{}}}", labels.join(","))
    }
}

/// The `,shard="N"` insert for histogram bucket label sets (which already
/// carry `le`).
fn shard_tail(shard: Option<usize>) -> String {
    match shard {
        Some(n) => format!(",shard=\"{n}\""),
        None => String::new(),
    }
}

/// Format a bucket upper bound (microseconds) as Prometheus seconds.
/// Bounds are exact decimal fractions so this never loses precision.
fn le_seconds(us: u64) -> String {
    let secs = us / 1_000_000;
    let frac = us % 1_000_000;
    if frac == 0 {
        format!("{secs}")
    } else {
        let s = format!("{frac:06}");
        format!("{secs}.{}", s.trim_end_matches('0'))
    }
}

/// Render the full registry in Prometheus text exposition format v0.0.4.
///
/// Families appear in a fixed order (counters, then gauges, then
/// histograms), each preceded by exactly one `# HELP` and one `# TYPE`
/// line; histogram buckets are cumulative and end with `le="+Inf"` equal to
/// `_count`.
pub fn render_prometheus(reg: &Registry) -> String {
    render_prometheus_fleet(reg, &[])
}

/// [`render_prometheus`] extended with per-worker `shard="N"` series from a
/// supervised sweep's merged snapshot store. `reg` holds the fleet totals
/// (the supervisor's own registry, with worker deltas already folded in);
/// each shard snapshot renders right after its total series, under the same
/// HELP/TYPE header. With no shards the page is byte-identical to
/// [`render_prometheus`].
pub fn render_prometheus_fleet(reg: &Registry, shards: &[(usize, RegistrySnapshot)]) -> String {
    let mut out = String::with_capacity(4096);

    let mut last_family = "";
    for &c in Counter::ALL {
        let fam = c.family();
        if fam != last_family {
            let _ = writeln!(out, "# HELP {fam} {}", escape_help(c.help()));
            let _ = writeln!(out, "# TYPE {fam} counter");
            last_family = fam;
        }
        let _ = writeln!(out, "{} {}", series_name(fam, c.label()), reg.counter(c));
        for (id, snap) in shards {
            let _ = writeln!(
                out,
                "{} {}",
                series_name_sharded(fam, c.label(), Some(*id)),
                snap.counters[c as usize]
            );
        }
    }

    for &g in Gauge::ALL {
        let fam = g.family();
        let _ = writeln!(out, "# HELP {fam} {}", escape_help(g.help()));
        let _ = writeln!(out, "# TYPE {fam} gauge");
        let _ = writeln!(out, "{fam} {}", reg.gauge(g));
        for (id, snap) in shards {
            let _ = writeln!(
                out,
                "{} {}",
                series_name_sharded(fam, None, Some(*id)),
                snap.gauges[g as usize]
            );
        }
    }

    for &h in Histogram::ALL {
        let fam = h.family();
        let _ = writeln!(out, "# HELP {fam} {}", escape_help(h.help()));
        let _ = writeln!(out, "# TYPE {fam} histogram");
        write_hist_block(&mut out, fam, &reg.histogram(h), None);
        for (id, snap) in shards {
            write_hist_block(&mut out, fam, &snap.hists[h as usize], Some(*id));
        }
    }

    out
}

/// One histogram's bucket/sum/count lines, optionally shard-labeled.
fn write_hist_block(out: &mut String, fam: &str, snap: &HistSnapshot, shard: Option<usize>) {
    let cum = snap.cumulative();
    let tail = shard_tail(shard);
    for (i, &bound) in BUCKET_BOUNDS_US.iter().enumerate() {
        let _ = writeln!(
            out,
            "{fam}_bucket{{le=\"{}\"{tail}}} {}",
            le_seconds(bound),
            cum[i]
        );
    }
    let _ = writeln!(
        out,
        "{fam}_bucket{{le=\"+Inf\"{tail}}} {}",
        cum[NUM_BUCKETS - 1]
    );
    let _ = writeln!(
        out,
        "{}_sum{} {}",
        fam,
        series_suffix(shard),
        sum_seconds(snap)
    );
    let _ = writeln!(out, "{}_count{} {}", fam, series_suffix(shard), snap.count);
}

/// The `{shard="N"}` suffix for `_sum`/`_count` series (no other labels).
fn series_suffix(shard: Option<usize>) -> String {
    match shard {
        Some(n) => format!("{{shard=\"{n}\"}}"),
        None => String::new(),
    }
}

/// Render a histogram's sum (stored in µs) as seconds with full precision.
fn sum_seconds(snap: &HistSnapshot) -> String {
    le_seconds(snap.sum_us)
}

/// Render the full registry as a single JSON object keyed by series name
/// (Prometheus series syntax, so live and offline views correlate by the
/// exact same strings). Histograms dump cumulative buckets plus sum/count.
pub fn render_json(reg: &Registry) -> String {
    render_json_fleet(reg, &[])
}

/// [`render_json`] extended with per-worker `shard="N"` keyed entries —
/// the dump-file twin of [`render_prometheus_fleet`]. With no shards the
/// output is byte-identical to [`render_json`], which `--metrics-dump`
/// consumers (CI greps, `wasai stats`) rely on.
pub fn render_json_fleet(reg: &Registry, shards: &[(usize, RegistrySnapshot)]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    let mut first = true;
    let mut field = |out: &mut String, key: &str, val: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(out, "  \"{}\": {val}", escape_json_key(key));
    };

    for &c in Counter::ALL {
        field(
            &mut out,
            &series_name(c.family(), c.label()),
            reg.counter(c).to_string(),
        );
        for (id, snap) in shards {
            field(
                &mut out,
                &series_name_sharded(c.family(), c.label(), Some(*id)),
                snap.counters[c as usize].to_string(),
            );
        }
    }
    for &g in Gauge::ALL {
        field(&mut out, g.family(), reg.gauge(g).to_string());
        for (id, snap) in shards {
            field(
                &mut out,
                &series_name_sharded(g.family(), None, Some(*id)),
                snap.gauges[g as usize].to_string(),
            );
        }
    }
    for &h in Histogram::ALL {
        let fam = h.family();
        let mut block = |out: &mut String, snap: &HistSnapshot, shard: Option<usize>| {
            let cum = snap.cumulative();
            let tail = shard_tail(shard);
            for (i, &bound) in BUCKET_BOUNDS_US.iter().enumerate() {
                field(
                    out,
                    &format!("{fam}_bucket{{le=\"{}\"{tail}}}", le_seconds(bound)),
                    cum[i].to_string(),
                );
            }
            field(
                out,
                &format!("{fam}_bucket{{le=\"+Inf\"{tail}}}"),
                cum[NUM_BUCKETS - 1].to_string(),
            );
            field(
                out,
                &format!("{fam}_sum{}", series_suffix(shard)),
                sum_seconds(snap),
            );
            field(
                out,
                &format!("{fam}_count{}", series_suffix(shard)),
                snap.count.to_string(),
            );
        };
        block(&mut out, &reg.histogram(h), None);
        for (id, snap) in shards {
            block(&mut out, &snap.hists[h as usize], Some(*id));
        }
    }
    out.push_str("\n}\n");
    out
}

fn escape_json_key(k: &str) -> String {
    let mut out = String::with_capacity(k.len());
    for c in k.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// One parsed sample from a Prometheus text exposition page: the full
/// series name (family plus rendered label set, exactly as emitted) and its
/// value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Series name including any `{label="value"}` suffix.
    pub series: String,
    /// Sample value. `+Inf`/`-Inf`/`NaN` parse to the matching float.
    pub value: f64,
}

/// Parse a Prometheus text exposition page back into samples — the inverse
/// of [`render_prometheus`] for the subset this crate emits (no timestamps,
/// single-label series). Comment and blank lines are skipped.
///
/// # Errors
///
/// Returns a message naming the first malformed line (missing value
/// separator or unparsable sample value) instead of panicking, so
/// round-trip consumers — tests, scrape post-processors — degrade cleanly
/// on garbage input.
pub fn parse_prometheus(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // The value is the token after the last space *outside* a label
        // set: label values may themselves contain spaces, so split at the
        // last space after the closing brace (or the last space when there
        // are no labels).
        let split_at = match line.rfind('}') {
            Some(brace) => line[brace..].find(' ').map(|off| brace + off),
            None => line.rfind(' '),
        };
        let (series, value) = match split_at {
            Some(i) if i + 1 < line.len() => (&line[..i], line[i + 1..].trim()),
            _ => {
                return Err(format!(
                    "line {}: expected `series value`, got {raw:?}",
                    lineno + 1
                ))
            }
        };
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse()
                .map_err(|e| format!("line {}: bad sample value {v:?}: {e}", lineno + 1))?,
        };
        out.push(Sample {
            series: series.trim().to_string(),
            value,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn enabled_registry() -> Registry {
        let r = Registry::new();
        r.enable();
        r
    }

    #[test]
    fn help_and_type_precede_every_family_exactly_once() {
        let r = enabled_registry();
        let text = render_prometheus(&r);
        let lines: Vec<&str> = text.lines().collect();
        let mut families_seen = std::collections::HashSet::new();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let fam = rest.split_whitespace().next().unwrap();
                assert!(
                    families_seen.insert(fam.to_string()),
                    "duplicate HELP for {fam}"
                );
                let type_line = lines[i + 1];
                assert!(
                    type_line.starts_with(&format!("# TYPE {fam} ")),
                    "HELP for {fam} not immediately followed by its TYPE: {type_line}"
                );
            }
        }
        // Every sample line's family must have been introduced by HELP/TYPE.
        for line in &lines {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap();
            let fam = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                families_seen.contains(fam),
                "sample {name} has no HELP/TYPE header (family {fam})"
            );
        }
    }

    #[test]
    fn counter_values_round_trip_through_text() {
        let r = enabled_registry();
        r.add(Counter::SeedsExecuted, 42);
        r.add(Counter::CampaignsTimedOut, 3);
        let text = render_prometheus(&r);
        assert!(text.contains("wasai_seeds_executed_total 42\n"), "{text}");
        assert!(
            text.contains("wasai_campaigns_total{outcome=\"timed-out\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("# TYPE wasai_campaigns_total counter\n"));
    }

    #[test]
    fn histogram_buckets_are_monotone_and_inf_equals_count() {
        let r = enabled_registry();
        for us in [10, 150, 2_000, 2_000, 50_000, 2_000_000, 90_000_000] {
            r.observe_us(Histogram::SolveWallSeconds, us);
        }
        let samples = parse_prometheus(&render_prometheus(&r)).expect("well-formed exposition");
        let mut prev = 0.0f64;
        let mut inf = None;
        let mut count = None;
        for s in &samples {
            if let Some(rest) = s
                .series
                .strip_prefix("wasai_solve_wall_seconds_bucket{le=\"")
            {
                let le = rest.trim_end_matches("\"}");
                assert!(
                    s.value >= prev,
                    "bucket le={le} decreased: {} < {prev}",
                    s.value
                );
                prev = s.value;
                if le == "+Inf" {
                    inf = Some(s.value);
                }
            } else if s.series == "wasai_solve_wall_seconds_count" {
                count = Some(s.value);
            }
        }
        assert_eq!(inf, Some(7.0));
        assert_eq!(count, Some(7.0), "le=\"+Inf\" must equal _count");
    }

    #[test]
    fn parser_round_trips_the_full_page() {
        let r = enabled_registry();
        r.add(Counter::SeedsExecuted, 17);
        r.observe_us(Histogram::ReplayWallSeconds, 1_000);
        let samples = parse_prometheus(&render_prometheus(&r)).expect("well-formed exposition");
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| s.series == name)
                .map(|s| s.value)
                .unwrap_or(f64::NAN)
        };
        assert_eq!(get("wasai_seeds_executed_total"), 17.0);
        assert_eq!(get("wasai_campaigns_total{outcome=\"ok\"}"), 0.0);
        assert_eq!(get("wasai_replay_wall_seconds_count"), 1.0);
        assert_eq!(get("wasai_replay_wall_seconds_bucket{le=\"+Inf\"}"), 1.0);
    }

    #[test]
    fn parser_rejects_malformed_input_without_panicking() {
        // A bare series with no value used to panic the round-trip parse
        // (`.unwrap()` on the value); both malformations must now surface
        // as errors naming the offending line.
        let err = parse_prometheus("wasai_seeds_executed_total\n").expect_err("no value");
        assert!(err.contains("line 1"), "{err}");
        let err = parse_prometheus("ok_metric 1\nwasai_seeds_executed_total forty-two\n")
            .expect_err("non-numeric value");
        assert!(err.contains("line 2") && err.contains("forty-two"), "{err}");
        // Label values containing spaces still parse.
        let samples = parse_prometheus("m{outcome=\"timed out\"} 3\n").expect("spaced label");
        assert_eq!(samples[0].series, "m{outcome=\"timed out\"}");
        assert_eq!(samples[0].value, 3.0);
    }

    #[test]
    fn bucket_bounds_render_as_seconds() {
        assert_eq!(le_seconds(10), "0.00001");
        assert_eq!(le_seconds(30), "0.00003");
        assert_eq!(le_seconds(100), "0.0001");
        assert_eq!(le_seconds(1_000), "0.001");
        assert_eq!(le_seconds(1_000_000), "1");
        assert_eq!(le_seconds(5_000_000), "5");
        assert_eq!(le_seconds(1_500_000), "1.5");
    }

    #[test]
    fn label_escaping_covers_quote_backslash_newline() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(
            escape_help("line\nbreak \\ \"q\""),
            "line\\nbreak \\\\ \"q\""
        );
    }

    #[test]
    fn fleet_renderers_with_no_shards_are_byte_identical_to_plain() {
        let r = enabled_registry();
        r.add(Counter::SeedsExecuted, 9);
        r.observe_us(Histogram::SolveWallSeconds, 2_000);
        assert_eq!(render_prometheus(&r), render_prometheus_fleet(&r, &[]));
        assert_eq!(render_json(&r), render_json_fleet(&r, &[]));
    }

    #[test]
    fn fleet_render_emits_shard_labeled_series_after_totals() {
        let r = enabled_registry();
        r.add(Counter::SeedsExecuted, 30);
        r.add(Counter::CampaignsOk, 3);
        r.observe_us(Histogram::CampaignWallSeconds, 1_000);

        let mut s0 = RegistrySnapshot::zero();
        s0.counters[Counter::SeedsExecuted as usize] = 10;
        s0.counters[Counter::CampaignsOk as usize] = 1;
        s0.gauges[Gauge::CampaignsRunning as usize] = 2;
        s0.hists[Histogram::CampaignWallSeconds as usize].count = 1;
        s0.hists[Histogram::CampaignWallSeconds as usize].sum_us = 1_000;
        s0.hists[Histogram::CampaignWallSeconds as usize].buckets[2] = 1;
        let mut s1 = RegistrySnapshot::zero();
        s1.counters[Counter::SeedsExecuted as usize] = 20;
        s1.counters[Counter::CampaignsOk as usize] = 2;

        let shards = vec![(0usize, s0), (1usize, s1)];
        let text = render_prometheus_fleet(&r, &shards);
        assert!(
            text.contains("wasai_seeds_executed_total{shard=\"0\"} 10\n"),
            "{text}"
        );
        assert!(
            text.contains("wasai_seeds_executed_total{shard=\"1\"} 20\n"),
            "{text}"
        );
        assert!(
            text.contains("wasai_campaigns_total{outcome=\"ok\",shard=\"0\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("wasai_campaigns_running{shard=\"0\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("wasai_campaign_wall_seconds_count{shard=\"0\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("wasai_campaign_wall_seconds_sum{shard=\"0\"} 0.001\n"),
            "{text}"
        );
        // The fleet-total series still render unlabeled before the shards.
        let total_at = text.find("wasai_seeds_executed_total 30").unwrap();
        let shard_at = text
            .find("wasai_seeds_executed_total{shard=\"0\"}")
            .unwrap();
        assert!(total_at < shard_at, "total must precede shard series");
        // Shard-labeled bucket lines carry both le and shard labels and the
        // whole page still parses.
        assert!(
            text.contains("wasai_campaign_wall_seconds_bucket{le=\"+Inf\",shard=\"0\"} 1\n"),
            "{text}"
        );
        let samples = parse_prometheus(&text).expect("fleet page parses");
        assert!(samples
            .iter()
            .any(|s| s.series == "wasai_seeds_executed_total{shard=\"1\"}" && s.value == 20.0));

        let json = render_json_fleet(&r, &shards);
        assert!(
            json.contains("\"wasai_seeds_executed_total{shard=\\\"1\\\"}\": 20"),
            "{json}"
        );
        assert!(
            json.contains("\"wasai_campaign_wall_seconds_sum{shard=\\\"0\\\"}\": 0.001"),
            "{json}"
        );
    }

    #[test]
    fn json_dump_shares_prometheus_series_names() {
        let r = enabled_registry();
        r.add(Counter::SmtSat, 5);
        r.observe_us(Histogram::ReplayWallSeconds, 500);
        let json = render_json(&r);
        assert!(
            json.contains("\"wasai_smt_queries_total{outcome=\\\"sat\\\"}\": 5"),
            "{json}"
        );
        assert!(
            json.contains("\"wasai_replay_wall_seconds_count\": 1"),
            "{json}"
        );
        // Parseable by the repo's own minimal JSON field splitter: one
        // object, string keys, numeric values.
        assert!(json.starts_with("{\n") && json.ends_with("\n}\n"));
    }
}
