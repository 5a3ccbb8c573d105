//! Metrics, outcome counts, host metadata and the result line.

use std::time::Duration;

use matryoshka_engine::StatsSnapshot;

use crate::pipeline::{JobCost, Spans};
use crate::stats::{median, peak_rss_mb, quartiles, tail};

/// Largest share of a traced job's time the layer spans may leave
/// unaccounted before the traced run fails.
pub const UNACCOUNTED_TOLERANCE: f64 = 0.05;

/// Operations attempted and how many differed from the reference.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose outcome differed from the reference: a wrong
    /// result, an unexpected failure or rejection, a bad program admitted,
    /// or no reply in time.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one operation named `what`; returns `ok` so callers can keep
    /// its sample.
    pub fn record(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(format!("{what}: result differs from the reference"));
        }
        ok
    }

    /// Count one operation that failed with `error`.
    pub fn error(&mut self, error: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(error);
    }

    /// Add another tally's counts and messages into this one.
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        o.errors.into_iter().for_each(|e| self.note(e));
    }

    fn note(&mut self, error: String) {
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    /// Share of attempted operations that failed.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// The samples the value summarizes, for their quartiles.
    samples: Vec<f64>,
}

/// Client-side timings of the wire commands (`service_mix` only).
pub struct WireTimes {
    /// SUBMIT to its `OK` reply, per accepted program, in seconds.
    pub submit: Vec<f64>,
    /// SUBMIT to its `ERR` reply, per rejected program, in seconds.
    pub reject: Vec<f64>,
    /// WAIT to its reply, per accepted program, in seconds.
    pub wait: Vec<f64>,
    /// Accepted submissions over attempted submissions.
    pub admit_ratio: f64,
}

/// Everything one benchmark run prints.
pub struct Report {
    /// Outcome counts.
    pub tally: Tally,
    metrics: Vec<Metric>,
    /// Extra lines for the human-readable part of the output.
    pub notes: Vec<String>,
    reconciled: bool,
}

impl Report {
    pub fn new(tally: Tally) -> Report {
        Report { tally, metrics: Vec::new(), notes: Vec::new(), reconciled: true }
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, samples: Vec<f64>) {
        self.metrics.push(Metric { name, unit, value, samples });
    }

    /// The end-to-end metrics. `latencies` holds one host time in seconds
    /// per checked job; `setups` one time per set-up.
    pub fn end_to_end(&mut self, latencies: &[f64], jobs_per_s: f64, setups: &[f64]) {
        let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
        let (pct, p_tail) = tail(&ms);
        self.push("job_s", "s", median(latencies), latencies.to_vec());
        self.push("jobs_per_s", "1/s", jobs_per_s, Vec::new());
        self.push("latency_ms_p50", "ms", median(&ms), ms);
        // Printed, not gated: on a shared host its run-to-run spread is
        // about twice that of the median.
        self.notes.push(format!(
            "latency tail: p{pct:.1} of {} samples = {p_tail:.3} ms",
            latencies.len()
        ));
        self.push("setup_s", "s", median(setups), setups.to_vec());
        self.push("peak_rss_mb", "MiB", peak_rss_mb().unwrap_or(f64::NAN), Vec::new());
    }

    /// The per-layer metrics of a traced run. `traced` are the traced
    /// in-process jobs, `untraced` the seconds of untraced jobs run
    /// alongside, `hand_s` the seconds of the hand-flattened runs, and
    /// `wire` the wire-command timings where the workload has them.
    pub fn layers(
        &mut self,
        traced: &[JobCost],
        untraced: &[f64],
        hand_s: &[f64],
        wire: Option<&WireTimes>,
    ) {
        let spans: Vec<Spans> =
            traced.iter().map(|c| c.spans.expect("a traced job carries spans")).collect();
        let per_job = |f: &dyn Fn(&JobCost, &Spans) -> f64| -> Vec<f64> {
            traced.iter().zip(&spans).map(|(c, s)| f(c, s)).collect()
        };
        let span = |f: fn(&Spans) -> Duration, scale: f64| -> Vec<f64> {
            per_job(&|_, s| f(s).as_secs_f64() * scale)
        };
        let count =
            |f: fn(&StatsSnapshot) -> u64| -> Vec<f64> { per_job(&|c, _| f(&c.stats) as f64) };
        let mut add =
            |name, unit, samples: Vec<f64>| self.push(name, unit, median(&samples), samples);

        add("ir.syntax.parse_us", "us", span(|s| s.parse, 1e6));
        add("ir.analyze.analyze_us", "us", span(|s| s.analyze, 1e6));
        add("ir.parse.flatten_us", "us", span(|s| s.flatten, 1e6));
        add("ir.lower.run_ms", "ms", span(|s| s.run, 1e3));
        add("engine.collect_ms", "ms", span(|s| s.collect, 1e3));
        // The lowering builds the final bag lazily, so its last engine job
        // runs inside collect: per-record and per-job costs divide the
        // lowered program's whole execution, run plus collect.
        let lowered = |s: &Spans| (s.run + s.collect).as_secs_f64();
        add(
            "ir.lower.ns_per_record",
            "ns",
            per_job(&|c, s| lowered(s) * 1e9 / c.stats.records.max(1) as f64),
        );
        add(
            "ir.lower.us_per_engine_job",
            "us",
            per_job(&|c, s| lowered(s) * 1e6 / c.stats.jobs.max(1) as f64),
        );
        add("engine.jobs", "count", count(|s| s.jobs));
        add("engine.stages", "count", count(|s| s.stages));
        add("engine.tasks", "count", count(|s| s.tasks));
        add("engine.records", "count", count(|s| s.records));
        add("engine.shuffle_bytes", "bytes", count(|s| s.shuffle_bytes));
        add("engine.stages_fused", "count", count(|s| s.stages_fused));
        add("engine.intermediates_elided", "count", count(|s| s.intermediates_elided));
        add("engine.peak_partition_skew_milli", "milli", count(|s| s.peak_partition_skew_milli));
        add("engine.sim_s", "s", per_job(&|c, _| c.sim_s));

        let lowered_s = per_job(&|_, s| lowered(s));
        self.push("core.lift_ratio", "ratio", median(&lowered_s) / median(hand_s), Vec::new());

        let (submit, reject, wait, admit) = match wire {
            Some(w) => (
                median(&w.submit) * 1e6,
                median(&w.reject) * 1e6,
                median(&w.wait) * 1e3,
                w.admit_ratio,
            ),
            None => (0.0, 0.0, 0.0, 0.0),
        };
        self.push("service.submit_us_p50", "us", submit, Vec::new());
        self.push("service.reject_us_p50", "us", reject, Vec::new());
        self.push("service.wait_ms_p50", "ms", wait, Vec::new());
        self.push("service.admit_ratio", "ratio", admit, Vec::new());
        if wire.is_none() {
            self.notes.push("service.* are 0: this workload sends no wire commands".to_string());
        }

        let totals: Vec<f64> = traced.iter().map(|c| c.total.as_secs_f64()).collect();
        self.push("trace.overhead", "ratio", median(&totals) / median(untraced), Vec::new());
        let accounted: f64 = spans.iter().map(|s| s.sum().as_secs_f64()).sum();
        let unaccounted = 1.0 - accounted / totals.iter().sum::<f64>();
        self.push("trace.unaccounted_share", "ratio", unaccounted, Vec::new());
        if unaccounted > UNACCOUNTED_TOLERANCE {
            self.reconciled = false;
            self.notes.push(format!(
                "layer spans leave {:.2}% of job_s unaccounted, above the {:.0}% tolerance",
                unaccounted * 100.0,
                UNACCOUNTED_TOLERANCE * 100.0
            ));
        }
    }

    /// Print the human-readable lines, the host metadata line and, last, the
    /// result line. Returns whether the run is correct.
    pub fn print(&self, header: &str) -> bool {
        println!("{header}");
        for m in &self.metrics {
            let spread = if m.samples.len() > 1 {
                let [q1, q2, q3] = quartiles(&m.samples);
                format!("  (n={} q1={q1:.6} median={q2:.6} q3={q3:.6})", m.samples.len())
            } else {
                String::new()
            };
            println!("  {:<34} {:>16.6} {:<6}{spread}", m.name, m.value, m.unit);
        }
        println!(
            "  error_rate {:.6} ({} of {} operations differ from the reference)",
            self.tally.error_rate(),
            self.tally.failed,
            self.tally.attempted
        );
        for e in &self.tally.errors {
            println!("  failure: {e}");
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
        println!("host {}", host_metadata(&self.metrics));

        let correct = self.tally.failed == 0 && self.tally.attempted > 0 && self.reconciled;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// JSON has no NaN or infinity, so those become `null`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// `nproc`, commit, compiler, build profile, and the sample count and
/// quartiles of every metric that summarizes samples.
fn host_metadata(metrics: &[Metric]) -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let quartile_fields: Vec<String> = metrics
        .iter()
        .filter(|m| !m.samples.is_empty())
        .map(|m| {
            let [q1, q2, q3] = quartiles(&m.samples);
            format!(
                "\"{}\": {{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
                m.name,
                m.samples.len(),
                json_number(q1),
                json_number(q2),
                json_number(q3)
            )
        })
        .collect();
    format!(
        "{{\"nproc\": {nproc}, \"commit\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \"quartiles\": {{{}}}}}",
        commit(),
        env!("MATBENCH_RUSTC"),
        env!("MATBENCH_PROFILE"),
        quartile_fields.join(", ")
    )
}

/// The checked-out commit, read from `.git` in the working directory when
/// there is one; `unknown` otherwise.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}
