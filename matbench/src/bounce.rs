//! `bounce_rate`: the paper's Listing 1 program over a Zipf-skewed visit
//! log. The keyed-shuffle path does most of the work.

use matryoshka_datagen::{visit_log, KeyDist, VisitSpec};
use matryoshka_engine::{Bag, Engine, Key};
use matryoshka_ir::Value;
use matryoshka_tasks::bounce_rate::{reference, BounceRates};

use crate::batch::{long_pairs, Workload};
use crate::pipeline::Output;

/// Visits in the log.
const VISITS: u64 = 50_000;
/// Days (groups) in the log.
const DAYS: u32 = 256;

pub struct BounceRate;

impl Workload for BounceRate {
    const PROGRAM: &'static str = include_str!("../../examples/programs/bounce_rate.mat");
    const SOURCE: &'static str = "visits";
    type Raw = Vec<(u32, u64)>;
    type Expected = BounceRates;

    fn generate(seed: u64) -> Self::Raw {
        visit_log(&VisitSpec {
            visits: VISITS,
            groups: DAYS,
            visitors_per_group: VISITS / DAYS as u64 / 3,
            bounce_fraction: 0.3,
            key_dist: KeyDist::Zipf(1.0),
            seed,
        })
    }

    fn rows(log: &Self::Raw) -> Vec<Value> {
        log.iter()
            .map(|&(d, ip)| Value::tuple(vec![Value::Long(d.into()), Value::Long(ip as i64)]))
            .collect()
    }

    fn reference(log: &Self::Raw) -> BounceRates {
        reference(log)
    }

    fn check(expected: &BounceRates, out: Output) -> bool {
        let Some(got) = long_pairs(out, |v| v.as_f64().ok()) else { return false };
        let got: BounceRates = got.into_iter().map(|(d, r)| (d as u32, r)).collect();
        same_rates(expected, &got)
    }

    fn hand_flattened<'a>(
        engine: &Engine,
        log: &Self::Raw,
        expected: &'a BounceRates,
    ) -> Box<dyn Fn() -> bool + 'a> {
        let visits = engine.parallelize(log.clone(), engine.config().default_parallelism);
        Box::new(move || listing3(&visits).is_ok_and(|got| same_rates(expected, &got)))
    }
}

/// Day for day, the same rate. Both sides divide the same two counts, so the
/// rates agree to the last bit; the tolerance only guards the comparison.
fn same_rates(expected: &BounceRates, got: &BounceRates) -> bool {
    expected.len() == got.len()
        && expected.iter().zip(got).all(|((d1, r1), (d2, r2))| d1 == d2 && (r1 - r2).abs() <= 1e-12)
}

/// Listing 3 of the paper: the flattened bounce rate, written by hand
/// against the engine's typed `Bag` API.
pub fn listing3<K: Key + Ord + Copy, I: Key + Copy>(
    visits: &Bag<(K, I)>,
) -> matryoshka_engine::Result<Vec<(K, f64)>> {
    let counts = visits.map(|&(d, ip)| ((d, ip), 1u64)).reduce_by_key(|a, b| a + b);
    let bounces =
        counts.filter(|(_, c)| *c == 1).map(|((d, _), _)| (*d, 1u64)).reduce_by_key(|a, b| a + b);
    let visitors = visits.distinct().map(|&(d, _)| (d, 1u64)).reduce_by_key(|a, b| a + b);
    let mut rates = visitors
        .left_outer_join(&bounces)
        .map(|(d, (v, b))| (*d, b.unwrap_or(0) as f64 / *v as f64))
        .collect()?;
    rates.sort_by_key(|(d, _)| *d);
    Ok(rates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Job;
    use crate::report::Tally;
    use std::collections::HashMap;

    fn small_log() -> Vec<(u32, u64)> {
        visit_log(&VisitSpec::small(6))
    }

    /// Run the Listing 1 program on `log` and count its outcome against
    /// `expected`.
    fn tally_against(expected: &BounceRates) -> Tally {
        let log = small_log();
        let engine = Engine::local();
        let bag = engine.parallelize(BounceRate::rows(&log), 4);
        let inputs = HashMap::from([("visits".to_string(), bag)]);
        let job = Job { src: BounceRate::PROGRAM, engine: &engine, inputs: &inputs };
        let mut tally = Tally::default();
        match job.run(false, |out| BounceRate::check(expected, out)) {
            Ok((_, ok)) => {
                tally.record(ok, "program");
            }
            Err(e) => tally.error(e),
        }
        tally
    }

    #[test]
    fn lowered_program_matches_the_reference() {
        let tally = tally_against(&reference(&small_log()));
        assert_eq!((tally.attempted, tally.failed), (1, 0), "{:?}", tally.errors);
    }

    #[test]
    fn a_wrong_result_raises_the_error_rate() {
        let mut wrong = reference(&small_log());
        wrong[2].1 += 0.01;
        let tally = tally_against(&wrong);
        assert!(tally.error_rate() > 0.0);
    }

    #[test]
    fn listing3_matches_the_reference() {
        let log = small_log();
        let expected = reference(&log);
        assert!(BounceRate::hand_flattened(&Engine::local(), &log, &expected)());
    }
}
