//! `group_fixpoint`: a K-means-shaped fixed-point loop per group. Each
//! iteration maps a UDF that captures the loop scalar over the group's values
//! and folds the result; groups converge after 1 to 16 iterations, so the set
//! of active tags shrinks as the loop runs.

use matryoshka_datagen::SmallRng;
use matryoshka_engine::{Bag, Engine};
use matryoshka_ir::Value;

use crate::batch::{long_pairs, Workload};
use crate::pipeline::Output;

/// Values in the input.
const VALUES: u64 = 50_000;
/// Groups (keys) in the input.
const GROUPS: u64 = 512;
/// Relative tolerance on each group's result: the engine folds a group's
/// values in partition order, the reference in input order.
const TOLERANCE: f64 = 1e-9;

pub struct GroupFixpoint;

/// For each group, the results the loop may end with: the reference's, plus
/// the one a step earlier or later when the stopping test `d > 1.0` was
/// within rounding of its threshold, where another summation order may
/// decide it the other way.
pub type Accepted = Vec<(i64, Vec<f64>)>;

impl Workload for GroupFixpoint {
    const PROGRAM: &'static str = "map(groupByKey(source(xs)), g => (g.0, \
        (let n = toDouble(count(g.1)) in \
         loop (c = 0.0, d = 1000000000.0) while d > 1.0 \
         do (fold(map(g.1, v => toDouble(v) * 0.5 + c * 0.5), 0.0, (a, b) => a + b) / n, \
             (fold(map(g.1, v => toDouble(v)), 0.0, (a, b) => a + b) / n - c) / 2.0) \
         yield c)))";
    const SOURCE: &'static str = "xs";
    type Raw = Vec<(i64, i64)>;
    type Expected = Accepted;

    /// Keys are uniform over the groups. A value of group `k` lies below
    /// `2^(2 + k % 16)`, so the group's mean, and with it the number of
    /// halvings of `d` before it drops to 1, depends on the key.
    fn generate(seed: u64) -> Self::Raw {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..VALUES)
            .map(|_| {
                let k = rng.gen_range(0..GROUPS);
                let v = rng.gen_range(0..1u64 << (2 + k % 16));
                (k as i64, v as i64)
            })
            .collect()
    }

    fn rows(xs: &Self::Raw) -> Vec<Value> {
        xs.iter().map(|&(k, v)| Value::tuple(vec![Value::Long(k), Value::Long(v)])).collect()
    }

    fn reference(xs: &Self::Raw) -> Accepted {
        let mut groups: std::collections::BTreeMap<i64, Vec<f64>> = Default::default();
        for &(k, v) in xs {
            groups.entry(k).or_default().push(v as f64);
        }
        groups.into_iter().map(|(k, vs)| (k, accepted_results(&vs))).collect()
    }

    fn check(expected: &Accepted, out: Output) -> bool {
        let Some(got) = long_pairs(out, |v| v.as_f64().ok()) else { return false };
        matches(expected, &got)
    }

    fn hand_flattened<'a>(
        engine: &Engine,
        xs: &Self::Raw,
        expected: &'a Accepted,
    ) -> Box<dyn Fn() -> bool + 'a> {
        let xs = engine.parallelize(xs.clone(), engine.config().default_parallelism);
        Box::new(move || {
            hand_flattened(&xs).is_ok_and(|mut got| {
                got.sort_by_key(|(k, _)| *k);
                matches(expected, &got)
            })
        })
    }
}

/// The loop run sequentially over one group's values, in input order.
fn accepted_results(vs: &[f64]) -> Vec<f64> {
    let n = vs.len() as f64;
    let (mut c, mut d) = (0.0f64, 1e9f64);
    // (c, d) after each step, starting with the initial state.
    let mut steps = vec![(c, d)];
    while d > 1.0 {
        let s1 = vs.iter().fold(0.0, |a, v| a + (v * 0.5 + c * 0.5));
        let s2 = vs.iter().fold(0.0, |a, v| a + v);
        (c, d) = (s1 / n, (s2 / n - c) / 2.0);
        steps.push((c, d));
    }
    let last = steps.len() - 1;
    let mut accepted = vec![steps[last].0];
    let near = |d: f64| (d - 1.0).abs() <= 1e-6;
    if near(steps[last].1) {
        let s1 = vs.iter().fold(0.0, |a, v| a + (v * 0.5 + c * 0.5));
        accepted.push(s1 / n);
    }
    if last >= 2 && near(steps[last - 1].1) {
        accepted.push(steps[last - 1].0);
    }
    accepted
}

fn matches(expected: &Accepted, got: &[(i64, f64)]) -> bool {
    expected.len() == got.len()
        && expected.iter().zip(got).all(|((k1, ok), (k2, c))| {
            k1 == k2 && ok.iter().any(|e| (e - c).abs() <= TOLERANCE * e.abs().max(1.0))
        })
}

/// The same fixed point written by hand against the engine's typed `Bag`
/// API: a plain loop steps all groups at once; each iteration joins the
/// values with the state of the groups still running and reduces both sums
/// in one shuffle.
fn hand_flattened(xs: &Bag<(i64, i64)>) -> matryoshka_engine::Result<Vec<(i64, f64)>> {
    let xs = xs.map(|&(k, v)| (k, v as f64)).cache();
    // Per group: (n, c, d).
    let mut state = xs
        .map(|&(k, _)| (k, 1.0f64))
        .reduce_by_key(|a, b| a + b)
        .map(|&(k, n)| (k, (n, 0.0f64, 1e9f64)))
        .cache();
    let mut done = Vec::new();
    loop {
        done.extend(
            state.filter(|(_, (_, _, d))| *d <= 1.0).map(|&(k, (_, c, _))| (k, c)).collect()?,
        );
        let running = state.filter(|(_, (_, _, d))| *d > 1.0).cache();
        if running.count()? == 0 {
            return Ok(done);
        }
        let sums = xs
            .join(&running)
            .map(|&(k, (v, (_, c, _)))| (k, (v * 0.5 + c * 0.5, v)))
            .reduce_by_key(|a, b| (a.0 + b.0, a.1 + b.1));
        state = sums
            .join(&running)
            .map(|&(k, ((s1, s2), (n, c, _)))| (k, (n, s1 / n, (s2 / n - c) / 2.0)))
            .cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Job;
    use std::collections::HashMap;

    fn small() -> Vec<(i64, i64)> {
        (0..600).map(|i| (i % 7, (i * 37) % (4 << (i % 7)))).collect()
    }

    fn run_checked(expected: &Accepted) -> bool {
        let raw = small();
        let engine = Engine::local();
        let bag = engine.parallelize(GroupFixpoint::rows(&raw), 4);
        let inputs = HashMap::from([("xs".to_string(), bag)]);
        let job = Job { src: GroupFixpoint::PROGRAM, engine: &engine, inputs: &inputs };
        job.run(false, |out| GroupFixpoint::check(expected, out)).expect("program runs").1
    }

    #[test]
    fn lowered_program_matches_the_sequential_recurrence() {
        assert!(run_checked(&GroupFixpoint::reference(&small())));
    }

    #[test]
    fn a_wrong_result_fails_the_check() {
        let mut wrong = GroupFixpoint::reference(&small());
        wrong[3].1 = vec![wrong[3].1[0] + 0.5];
        assert!(!run_checked(&wrong));
    }

    #[test]
    fn hand_flattened_matches_the_reference() {
        let raw = small();
        let expected = GroupFixpoint::reference(&raw);
        let engine = Engine::local();
        assert!(GroupFixpoint::hand_flattened(&engine, &raw, &expected)());
    }

    #[test]
    fn loop_stops_within_one_of_the_group_mean() {
        // Each step halves the distance to the mean m, and the loop stops
        // once that distance, d, is at most 1.
        for vs in [vec![1.0, 2.0], vec![60000.0, 70000.0]] {
            let m = vs.iter().sum::<f64>() / vs.len() as f64;
            let c = accepted_results(&vs)[0];
            assert!((m - c).abs() <= 1.0, "mean {m}, result {c}");
        }
    }
}
