//! Keyed records in the lowering: records of keyed bags stay native
//! `(key, value)` pairs between keyed operators, and UDFs over them bind
//! their record parameter to the pair.
//!
//! A seeded differential suite generates random keyed pipelines (driver and
//! lifted) as program text, lowers them, and compares the result multiset
//! with a plain-Rust reference over `Vec<Value>`: values bit-identical, and
//! error text equal. The generated pipelines mix the cases where records
//! change shape: maps to a pair literal and to a pair that stays a row,
//! `reduceByKey`, `join` and half-lifted `join`, filters and maps reading
//! `kv.0`, `kv.1`, a bare `kv` and the out-of-range `kv.2`, `distinct`,
//! `union` of keyed bags with row bags, `count` and `fold`.
//!
//! A regression pin runs Listing 1 on a small fixed log and checks that no
//! re-boxing pass sits between the lifted map and `reduce_by_key`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use matryoshka_core::MatryoshkaConfig;
use matryoshka_engine::Engine;
use matryoshka_ir::{parse_program, parsing_phase, Dialect, IrError, Lowering, RtVal, Value};

/// splitmix64 (same generator the round-trip property tests use).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn long(x: i64) -> Value {
    Value::Long(x)
}

fn pair(a: Value, b: Value) -> Value {
    Value::tuple(vec![a, b])
}

fn as_long(v: &Value) -> i64 {
    v.as_long().expect("generated values are longs")
}

/// The value of a generated bag's `(key, value)` records.
#[derive(Clone, Copy, PartialEq)]
enum Val {
    /// A long.
    Long,
    /// A `(long, long)` join value.
    Joined,
}

/// A generated bag expression. Every record is a `(key, value)` tuple or
/// pair; which of the two the lowering uses is the point of the test.
enum Bag {
    /// The input: `source(xs)` in driver mode, the group `g.1` when lifted.
    Src,
    /// `map(source(ys), r => (r.0, r.1 + n))`: when lifted, a half-lifted
    /// cross product with the lifted closure `n`.
    HalfMap,
    /// `map(b, kv => (kv.1, kv.0))`.
    Swap(Box<Bag>),
    /// `map(b, kv => if kv.0 > kv.1 then (kv.0, kv.1) else (kv.1, kv.0))`:
    /// a pair that stays a row.
    Orient(Box<Bag>),
    /// `map(b, kv => kv)`: a bare `kv`, a row.
    Identity(Box<Bag>),
    /// `map(b, kv => (kv.0, (kv.1).0 - (kv.1).1))`: paths below `kv.1`.
    SumJoined(Box<Bag>),
    /// `map(b, kv => (kv.0, kv.1 + n))`, with `n` a closure.
    AddClosure(Box<Bag>),
    /// `filter(b, kv => kv.0 > c)`.
    KeyAbove(Box<Bag>, i64),
    /// `filter(b, kv => kv.1 < n)`, with `n` a closure.
    ValBelowN(Box<Bag>),
    /// `filter(b, kv => kv == (kv.0, 1))`: a bare `kv` in a comparison.
    IsOne(Box<Bag>),
    /// `filter(b, kv => kv.2 == 1)`: out of range on every record.
    OutOfRange(Box<Bag>),
    /// `reduceByKey(b, (a, b) => a + b)`.
    Reduce(Box<Bag>),
    /// `join(l, r)`: lifted, a lifted join.
    Join(Box<Bag>, Box<Bag>),
    /// `join(b, source(ys))`: lifted, a half-lifted join.
    JoinYs(Box<Bag>),
    /// `distinct(b)`.
    Distinct(Box<Bag>),
    /// `union(l, r)`.
    Union(Box<Bag>, Box<Bag>),
}

/// What the program makes of the generated bag.
#[derive(Clone, Copy)]
enum Term {
    /// The bag itself.
    Bag,
    /// `map(b, kv => (kv.0, toDouble(kv.1) / 3.0))`: doubles, bit for bit.
    Thirds,
    /// `count(b)`.
    Count,
    /// `fold(b, 0, (acc, kv) => acc + kv.1)` (driver mode only: a lifted
    /// fold combines partial results with the UDF itself).
    FoldValues,
    /// `fold(b, (0, 0), (a, b) => (a.0 + b.0, a.1 + b.1))`.
    FoldPairs,
}

struct Gen {
    rng: Rng,
    /// Whether a pipeline already contains an out-of-range filter: one is
    /// enough, and a second could only repeat its error.
    failing: bool,
}

impl Gen {
    fn bag(&mut self, depth: u32, val: Val) -> Bag {
        if val == Val::Joined {
            return match self.rng.below(6) {
                0 | 1 if depth > 0 => Bag::Join(
                    Box::new(self.bag(depth - 1, Val::Long)),
                    Box::new(self.bag(0, Val::Long)),
                ),
                2 if depth > 0 => Bag::Distinct(Box::new(self.bag(depth - 1, Val::Joined))),
                3 if depth > 0 => Bag::Identity(Box::new(self.bag(depth - 1, Val::Joined))),
                4 if depth > 0 => Bag::KeyAbove(Box::new(self.bag(depth - 1, Val::Joined)), 1),
                _ => Bag::JoinYs(Box::new(self.bag(depth.saturating_sub(1), Val::Long))),
            };
        }
        if depth == 0 {
            return if self.rng.below(4) == 0 { Bag::HalfMap } else { Bag::Src };
        }
        let d = depth - 1;
        let inner = |g: &mut Gen| Box::new(g.bag(d, Val::Long));
        match self.rng.below(15) {
            0 => Bag::Swap(inner(self)),
            1 => Bag::Orient(inner(self)),
            2 => Bag::Identity(inner(self)),
            3 => Bag::SumJoined(Box::new(self.bag(d, Val::Joined))),
            4 => Bag::AddClosure(inner(self)),
            5 => Bag::KeyAbove(inner(self), self.rng.below(4) as i64),
            6 => Bag::ValBelowN(inner(self)),
            7 => Bag::IsOne(inner(self)),
            8 | 9 => Bag::Reduce(inner(self)),
            10 => Bag::Distinct(inner(self)),
            11 | 12 => Bag::Union(inner(self), inner(self)),
            13 if !self.failing && self.rng.below(3) == 0 => {
                self.failing = true;
                Bag::OutOfRange(inner(self))
            }
            _ => Bag::Swap(Box::new(Bag::Reduce(inner(self)))),
        }
    }

    /// A bag and what to make of it: a bag of join values is kept or
    /// counted, the other terms need long values.
    fn pipeline(&mut self, lifted: bool) -> (Bag, Term) {
        let depth = 1 + self.rng.below(3) as u32;
        if self.rng.below(5) == 0 {
            let term = if self.rng.below(2) == 0 { Term::Bag } else { Term::Count };
            return (self.bag(depth, Val::Joined), term);
        }
        let bag = self.bag(depth, Val::Long);
        (bag, self.term(lifted))
    }

    fn term(&mut self, lifted: bool) -> Term {
        match self.rng.below(5) {
            0 => Term::Bag,
            1 => Term::Thirds,
            2 => Term::Count,
            3 if !lifted => Term::FoldValues,
            _ => Term::FoldPairs,
        }
    }
}

/// Program text of a bag expression; `src` is the input's text.
fn text(b: &Bag, src: &str) -> String {
    let t = |b: &Bag| text(b, src);
    match b {
        Bag::Src => src.to_string(),
        Bag::HalfMap => "map(source(ys), r => (r.0, r.1 + n))".to_string(),
        Bag::Swap(b) => format!("map({}, kv => (kv.1, kv.0))", t(b)),
        Bag::Orient(b) => {
            format!("map({}, kv => if kv.0 > kv.1 then (kv.0, kv.1) else (kv.1, kv.0))", t(b))
        }
        Bag::Identity(b) => format!("map({}, kv => kv)", t(b)),
        Bag::SumJoined(b) => format!("map({}, kv => (kv.0, (kv.1).0 - (kv.1).1))", t(b)),
        Bag::AddClosure(b) => format!("map({}, kv => (kv.0, kv.1 + n))", t(b)),
        Bag::KeyAbove(b, c) => format!("filter({}, kv => kv.0 > {c})", t(b)),
        Bag::ValBelowN(b) => format!("filter({}, kv => kv.1 < n)", t(b)),
        Bag::IsOne(b) => format!("filter({}, kv => kv == (kv.0, 1))", t(b)),
        Bag::OutOfRange(b) => format!("filter({}, kv => kv.2 == 1)", t(b)),
        Bag::Reduce(b) => format!("reduceByKey({}, (a, b) => a + b)", t(b)),
        Bag::Join(l, r) => format!("join({}, {})", t(l), t(r)),
        Bag::JoinYs(b) => format!("join({}, source(ys))", t(b)),
        Bag::Distinct(b) => format!("distinct({})", t(b)),
        Bag::Union(l, r) => format!("union({}, {})", t(l), t(r)),
    }
}

fn term_text(term: Term, bag: &str) -> String {
    match term {
        Term::Bag => bag.to_string(),
        Term::Thirds => format!("map({bag}, kv => (kv.0, toDouble(kv.1) / 3.0))"),
        Term::Count => format!("count({bag})"),
        Term::FoldValues => format!("fold({bag}, 0, (acc, kv) => acc + kv.1)"),
        Term::FoldPairs => format!("fold({bag}, (0, 0), (a, b) => (a.0 + b.0, a.1 + b.1))"),
    }
}

/// The reference: each operator over plain `Vec<Value>` records, with the
/// interpreter's projection errors (`Value::proj`).
fn reference(b: &Bag, src: &[Value], ys: &[Value], n: i64) -> Result<Vec<Value>, IrError> {
    let r = |b: &Bag| reference(b, src, ys, n);
    let map = |b: &Bag,
               f: &dyn Fn(&Value) -> Result<Value, IrError>|
     -> Result<Vec<Value>, IrError> { r(b)?.iter().map(f).collect() };
    let filter =
        |b: &Bag, f: &dyn Fn(&Value) -> Result<bool, IrError>| -> Result<Vec<Value>, IrError> {
            let mut out = Vec::new();
            for v in r(b)? {
                if f(&v)? {
                    out.push(v);
                }
            }
            Ok(out)
        };
    Ok(match b {
        Bag::Src => src.to_vec(),
        Bag::HalfMap => ys
            .iter()
            .map(|v| Ok(pair(v.proj(0)?, long(as_long(&v.proj(1)?) + n))))
            .collect::<Result<_, IrError>>()?,
        Bag::Swap(b) => map(b, &|v| Ok(pair(v.proj(1)?, v.proj(0)?)))?,
        Bag::Orient(b) => map(b, &|v| {
            let (k, w) = (v.proj(0)?, v.proj(1)?);
            Ok(if as_long(&k) > as_long(&w) { pair(k, w) } else { pair(w, k) })
        })?,
        Bag::Identity(b) => r(b)?,
        Bag::SumJoined(b) => map(b, &|v| {
            let vw = v.proj(1)?;
            Ok(pair(v.proj(0)?, long(as_long(&vw.proj(0)?) - as_long(&vw.proj(1)?))))
        })?,
        Bag::AddClosure(b) => map(b, &|v| Ok(pair(v.proj(0)?, long(as_long(&v.proj(1)?) + n))))?,
        Bag::KeyAbove(b, c) => filter(b, &|v| Ok(as_long(&v.proj(0)?) > *c))?,
        Bag::ValBelowN(b) => filter(b, &|v| Ok(as_long(&v.proj(1)?) < n))?,
        Bag::IsOne(b) => filter(b, &|v| Ok(*v == pair(v.proj(0)?, long(1))))?,
        Bag::OutOfRange(b) => filter(b, &|v| Ok(v.proj(2)? == long(1)))?,
        Bag::Reduce(b) => {
            let mut sums: Vec<(Value, i64)> = Vec::new();
            for v in r(b)? {
                let (k, w) = (v.proj(0)?, as_long(&v.proj(1)?));
                match sums.iter_mut().find(|(key, _)| *key == k) {
                    Some((_, s)) => *s += w,
                    None => sums.push((k, w)),
                }
            }
            sums.into_iter().map(|(k, s)| pair(k, long(s))).collect()
        }
        Bag::Join(l, rt) => join(&r(l)?, &r(rt)?)?,
        Bag::JoinYs(b) => join(&r(b)?, ys)?,
        Bag::Distinct(b) => {
            let mut out: Vec<Value> = Vec::new();
            for v in r(b)? {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
            out
        }
        Bag::Union(l, rt) => {
            let mut out = r(l)?;
            out.extend(r(rt)?);
            out
        }
    })
}

fn join(left: &[Value], right: &[Value]) -> Result<Vec<Value>, IrError> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if l.proj(0)? == r.proj(0)? {
                out.push(pair(l.proj(0)?, pair(l.proj(1)?, r.proj(1)?)));
            }
        }
    }
    Ok(out)
}

/// The reference value of a term: the result rows, sorted.
fn reference_term(term: Term, records: Vec<Value>) -> Vec<Value> {
    let sum = |i: usize| records.iter().map(|v| as_long(&v.proj(i).unwrap())).sum::<i64>();
    let mut rows = match term {
        Term::Bag => records.clone(),
        Term::Thirds => records
            .iter()
            .map(|v| {
                let x = as_long(&v.proj(1).unwrap()) as f64;
                pair(v.proj(0).unwrap(), Value::Double(x / 3.0))
            })
            .collect(),
        Term::Count => vec![long(records.len() as i64)],
        Term::FoldValues => vec![long(sum(1))],
        Term::FoldPairs => vec![pair(long(sum(0)), long(sum(1)))],
    };
    rows.sort();
    rows
}

/// What a lowered program produced: sorted rows, or the error text of the
/// UDF evaluation that failed.
type Outcome = Result<Vec<Value>, String>;

/// Lower `src` over the given sources and collect the result as sorted
/// rows. A nested result becomes `(tag, element)` rows. A panic raised by a
/// failing UDF becomes its error text: the message after the lowering's
/// `expect` prefix, which is the `IrError`'s debug form. `interpret` runs
/// the UDFs through the interpreter (`MatryoshkaConfig::interpret_udfs`).
fn lower(src: &str, sources: &[(&str, &[Value])], interpret: bool) -> Outcome {
    let ast = parse_program(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    let names: Vec<&str> = sources.iter().map(|(n, _)| *n).collect();
    let flat = parsing_phase(&ast, &names, Dialect::Matryoshka)
        .unwrap_or_else(|e| panic!("{src}: parsing phase: {e}"));
    let engine = Engine::local();
    let inputs: HashMap<String, matryoshka_engine::Bag<Value>> = sources
        .iter()
        .map(|(n, rows)| (n.to_string(), engine.parallelize(rows.to_vec(), 3)))
        .collect();
    let mut config = MatryoshkaConfig::optimized();
    config.interpret_udfs = interpret;
    let run = catch_unwind(AssertUnwindSafe(|| {
        let out = Lowering::new(engine.clone(), config)
            .run(&flat, &inputs)
            .unwrap_or_else(|e| panic!("{src}: lowering: {e}"));
        let mut rows = match out {
            RtVal::Scalar(v) => vec![v],
            RtVal::Bag(b) => b.collect().unwrap(),
            RtVal::Nested(nb) => {
                nb.inner().collect().unwrap().into_iter().map(|(t, v)| pair(t, v)).collect()
            }
        };
        rows.sort();
        rows
    }));
    run.map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        match msg.split_once(": ") {
            Some((_, err)) => err.to_string(),
            None => msg,
        }
    })
}

/// `(key, value)` rows with small keys, so joins and reductions collide.
fn rows(rng: &mut Rng, len: u64) -> Vec<Value> {
    (0..len).map(|_| pair(long(rng.below(4) as i64), long(rng.below(5) as i64))).collect()
}

/// One driver-mode case: `let n = count(source(xs)) in <term>`.
fn driver_case(seed: u64) {
    let mut rng = Rng(seed ^ 0x6b65_7965_6420_6472); // "keyed dr"
    let (nx, ny) = (6 + rng.below(12), 3 + rng.below(6));
    let xs = rows(&mut rng, nx);
    let ys = rows(&mut rng, ny);
    let (bag, term) = Gen { rng, failing: false }.pipeline(false);
    let src =
        format!("let n = count(source(xs)) in {}", term_text(term, &text(&bag, "source(xs)")));
    let want: Outcome = reference(&bag, &xs, &ys, xs.len() as i64)
        .map(|records| reference_term(term, records))
        .map_err(|e| format!("{e:?}"));
    let sources: [(&str, &[Value]); 2] = [("xs", &xs), ("ys", &ys)];
    assert_eq!(lower(&src, &sources, false), want, "seed {seed}: {src}");
    if seed.is_multiple_of(4) {
        assert_eq!(lower(&src, &sources, true), want, "seed {seed} (interpreted): {src}");
    }
}

/// One lifted case: `map(groupByKey(source(gs)), g => let n = count(g.1)
/// in ..)`, where the term is a scalar per group, or the bag itself (a
/// nested result).
fn lifted_case(seed: u64) {
    let mut rng = Rng(seed ^ 0x6b65_7965_6420_6c69); // "keyed li"
    let groups = 1 + rng.below(3) as i64;
    let gs: Vec<Value> = (0..8 + rng.below(16))
        .map(|_| pair(long(rng.below(groups as u64) as i64), rows(&mut rng, 1).remove(0)))
        .collect();
    let ny = 3 + rng.below(6);
    let ys = rows(&mut rng, ny);
    let (bag, term) = Gen { rng, failing: false }.pipeline(true);
    let body = term_text(term, &text(&bag, "g.1"));
    let body = match term {
        Term::Bag | Term::Thirds => body,
        _ => format!("(g.0, {body})"),
    };
    let src = format!("map(groupByKey(source(gs)), g => let n = count(g.1) in {body})");

    let mut want: Result<Vec<Value>, IrError> = Ok(Vec::new());
    for group in 0..groups {
        let members: Vec<Value> = gs
            .iter()
            .filter(|v| v.proj(0).unwrap() == long(group))
            .map(|v| v.proj(1).unwrap())
            .collect();
        if members.is_empty() {
            continue;
        }
        let records = match reference(&bag, &members, &ys, members.len() as i64) {
            Ok(records) => records,
            Err(e) => {
                want = Err(e);
                break;
            }
        };
        let out = want.as_mut().unwrap();
        match term {
            Term::Bag | Term::Thirds => {
                out.extend(reference_term(term, records).into_iter().map(|v| pair(long(group), v)))
            }
            _ => out.push(pair(long(group), reference_term(term, records).remove(0))),
        }
    }
    let want: Outcome = want
        .map(|mut rows| {
            rows.sort();
            rows
        })
        .map_err(|e| format!("{e:?}"));
    let sources: [(&str, &[Value]); 2] = [("gs", &gs), ("ys", &ys)];
    assert_eq!(lower(&src, &sources, false), want, "seed {seed}: {src}");
    if seed.is_multiple_of(4) {
        assert_eq!(lower(&src, &sources, true), want, "seed {seed} (interpreted): {src}");
    }
}

/// Run `cases` with the default panic hook silenced: the out-of-range
/// cases panic inside pool tasks by design.
fn quietly(cases: impl FnOnce() + std::panic::UnwindSafe) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = catch_unwind(cases);
    std::panic::set_hook(prev);
    if let Err(payload) = run {
        std::panic::resume_unwind(payload);
    }
}

#[test]
fn driver_keyed_pipelines_match_the_reference() {
    quietly(|| (0..200).for_each(driver_case));
}

#[test]
fn lifted_keyed_pipelines_match_the_reference() {
    quietly(|| (0..120).for_each(lifted_case));
}

/// The generated pipelines reach every case they are meant to cover: the
/// out-of-range error, joins, half-lifted maps and joins, and unions.
#[test]
fn generator_covers_the_keyed_cases() {
    fn walk(b: &Bag, seen: &mut [bool; 5]) {
        match b {
            Bag::Src => {}
            Bag::HalfMap => seen[0] = true,
            Bag::OutOfRange(b) => {
                seen[1] = true;
                walk(b, seen)
            }
            Bag::Join(l, r) => {
                seen[2] = true;
                walk(l, seen);
                walk(r, seen)
            }
            Bag::JoinYs(b) => {
                seen[3] = true;
                walk(b, seen)
            }
            Bag::Union(l, r) => {
                seen[4] = true;
                walk(l, seen);
                walk(r, seen)
            }
            Bag::Swap(b)
            | Bag::Orient(b)
            | Bag::Identity(b)
            | Bag::SumJoined(b)
            | Bag::AddClosure(b)
            | Bag::KeyAbove(b, _)
            | Bag::ValBelowN(b)
            | Bag::IsOne(b)
            | Bag::Reduce(b)
            | Bag::Distinct(b) => walk(b, seen),
        }
    }
    let mut seen = [false; 5];
    for seed in 0..120u64 {
        walk(&Gen { rng: Rng(seed), failing: false }.pipeline(seed.is_multiple_of(2)).0, &mut seen);
    }
    assert_eq!(seen, [true; 5], "half map, out of range, join, half join, union");
}

/// Listing 1 on a small fixed log: the lifted `map(g.1, ip => (ip, 1))`
/// emits pairs that `reduce_by_key` re-keys in the same pass, with no
/// re-boxing map in between, and the engine processes a pinned number of
/// records.
#[test]
fn listing1_has_no_reboxing_pass_before_reduce_by_key() {
    let src = include_str!("../../../examples/programs/bounce_rate.mat");
    let flat = parsing_phase(&parse_program(src).unwrap(), &["visits"], Dialect::Matryoshka)
        .expect("parsing phase");
    let engine = Engine::local();
    // 60 visits over 3 days; day d sees the ips 7i mod 11.
    let log: Vec<Value> = (0..60i64).map(|i| pair(long(i % 3), long(i * 7 % 11))).collect();
    let visits = engine.parallelize(log, 4);
    let out = Lowering::new(engine.clone(), MatryoshkaConfig::optimized())
        .run(&flat, &HashMap::from([("visits".to_string(), visits)]))
        .expect("lowering");
    let RtVal::Bag(rates) = out else { panic!("expected a bag") };
    let mut rates = rates.collect().unwrap();
    rates.sort();
    // Each day sees all 11 ips; 2 of them once (a bounce each).
    let rate = Value::Double(2.0 / 11.0);
    assert_eq!(rates, (0..3).map(|d| pair(long(d), rate.clone())).collect::<Vec<_>>());

    let trace = engine.trace();
    let ops: Vec<&str> = trace.iter().map(|ev| ev.op).collect();
    // The first `reduce_by_key` over more than one record per day is the
    // per-ip count; the stage before it is the chain that feeds it.
    let reduce = trace
        .iter()
        .position(|ev| ev.op == "reduce_by_key" && ev.records > 3)
        .unwrap_or_else(|| panic!("no per-ip reduce_by_key in {ops:?}"));
    assert_eq!(
        (ops[reduce - 1], trace[reduce - 1].records),
        ("fused(map|map)", 60),
        "the lifted map and the (tag, key) re-key fuse, with no re-boxing pass: {ops:?}"
    );
    assert!(!ops.iter().any(|op| op.contains("map|map|map")), "{ops:?}");
    assert_eq!(engine.stats().records, 823, "records processed by Listing 1 on the fixed log");
}
