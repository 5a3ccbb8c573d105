//! The `service_mix` submission corpus: the eight `examples/programs/*.mat`
//! files, three programs the front end must reject, and a plain-Rust
//! reference for every expected outcome.
//!
//! The references read the same `(key, value)` pairs the service generates
//! for each source name (`matryoshka_service::datasets::source_bag`) and
//! compute each program's result directly, without the IR, the lowering or
//! the engine's operators. They follow the language's documented semantics,
//! including that a loop inside a lifted UDF runs as a do-while.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use matryoshka_engine::Engine;
use matryoshka_ir::Value;
use matryoshka_service::datasets::source_bag;

/// A program the analyzer and parser accept.
pub struct Accepted {
    /// File stem, used as the job name.
    pub name: &'static str,
    /// Program text.
    pub src: &'static str,
    /// Source names the program reads.
    pub sources: &'static [&'static str],
    expected: fn(&Data) -> Expected,
}

/// A program admission must turn away.
pub struct Rejected {
    /// Job name.
    pub name: &'static str,
    /// Program text.
    pub src: &'static str,
    /// The `MAT` code the `DIAG` lines must carry, or `None` for a parse
    /// error (which has no diagnostics).
    pub code: Option<&'static str>,
}

/// A program's expected result.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// A bag with these rows, sorted.
    Rows(Vec<Value>),
    /// A scalar.
    Scalar(Value),
}

impl Expected {
    /// The result text of the service's `WAIT` reply for this result.
    pub fn reply(&self) -> String {
        match self {
            Expected::Rows(rows) => format!("bag with {} records", rows.len()),
            Expected::Scalar(v) => format!("scalar {v}"),
        }
    }
}

macro_rules! program {
    ($name:literal, $sources:expr, $expected:expr) => {
        Accepted {
            name: $name,
            src: include_str!(concat!("../../examples/programs/", $name, ".mat")),
            sources: $sources,
            expected: $expected,
        }
    };
}

/// The accepted corpus, in file-name order.
pub const ACCEPTED: [Accepted; 8] = [
    program!("bounce_rate", &["visits"], |d| rows_per_key(d, "visits", |vs| {
        let mut per_ip: HashMap<i64, u64> = HashMap::new();
        for v in vs {
            *per_ip.entry(*v).or_default() += 1;
        }
        let bounces = per_ip.values().filter(|c| **c == 1).count();
        Value::Double(bounces as f64 / per_ip.len() as f64)
    })),
    program!("half_lifted_closure", &["points"], |d| rows_per_key(d, "points", |vs| {
        let n = vs.len() as i64;
        Value::Long(vs.iter().filter(|v| **v < n).count() as i64)
    })),
    program!("invariant_loop", &["edges"], |d| rows_per_key(d, "edges", |vs| {
        Value::Long(vs.iter().collect::<BTreeSet<_>>().len() as i64)
    })),
    program!("join_enrichment", &["orders", "customers"], |d| {
        let mut customers: HashMap<i64, Vec<i64>> = HashMap::new();
        for (k, v) in &d["customers"] {
            customers.entry(*k).or_default().push(*v);
        }
        let mut rows = Vec::new();
        for (k, o) in &d["orders"] {
            for c in customers.get(k).map(Vec::as_slice).unwrap_or_default() {
                rows.push(pair(*o, Value::Long(*c)));
            }
        }
        rows.sort();
        Expected::Rows(rows)
    }),
    program!("lifted_if", &["visits"], |d| rows_per_key(d, "visits", |vs| {
        Value::Long(i64::from(vs.len() > 100))
    })),
    // A loop inside a lifted UDF is a do-while: its step runs once before
    // the condition is first tested.
    program!("per_group_loop", &["edges"], |d| rows_per_key(d, "edges", |vs| {
        Value::Long((vs.len() as i64 - 1).min(10))
    })),
    program!("union_distinct", &["xs", "ys"], |d| {
        let all: BTreeSet<&(i64, i64)> = d["xs"].iter().chain(&d["ys"]).collect();
        Expected::Scalar(Value::Long(all.len() as i64))
    }),
    program!("visit_counts", &["visits"], |d| rows_per_key(d, "visits", |vs| {
        Value::Long(vs.len() as i64)
    })),
];

/// The rejected share: an unbound variable, a shape error and a parse
/// error.
pub const REJECTED: [Rejected; 3] = [
    Rejected {
        name: "unbound_variable",
        src: "map(source(visits), v => (v.0, w))",
        code: Some("MAT001"),
    },
    Rejected {
        name: "arithmetic_on_bag",
        src: "map(groupByKey(source(visits)), g => (g.0, g.1 + 1))",
        code: Some("MAT011"),
    },
    Rejected { name: "unclosed_call", src: "map(source(visits), v => v.0", code: None },
];

/// Every source bag the corpus reads, as plain pairs.
pub type Data = HashMap<&'static str, Vec<(i64, i64)>>;

/// Materialize the service's seeded datasets for every corpus source.
pub fn datasets(seed: u64) -> Data {
    let engine = Engine::local();
    let mut data = Data::new();
    for p in &ACCEPTED {
        for &name in p.sources {
            data.entry(name).or_insert_with(|| {
                let rows = source_bag(&engine, seed, name).collect().expect("collect a source bag");
                rows.iter().map(|r| (long(r, 0), long(r, 1))).collect()
            });
        }
    }
    data
}

impl Accepted {
    /// This program's expected result over `data`.
    pub fn expected(&self, data: &Data) -> Expected {
        (self.expected)(data)
    }
}

fn long(v: &Value, i: usize) -> i64 {
    v.proj(i).and_then(|x| x.as_long()).expect("source rows are (Long, Long) pairs")
}

fn pair(a: i64, b: Value) -> Value {
    Value::tuple(vec![Value::Long(a), b])
}

/// `map(groupByKey(source(name)), g => (g.0, f(g.1)))`, computed directly.
fn rows_per_key(d: &Data, name: &str, f: impl Fn(&[i64]) -> Value) -> Expected {
    let mut groups: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for (k, v) in &d[name] {
        groups.entry(*k).or_default().push(*v);
    }
    Expected::Rows(groups.iter().map(|(k, vs)| pair(*k, f(vs))).collect())
}
