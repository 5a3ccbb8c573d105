//! The **lowering phase** (paper Sec. 4.1.2): executing the explicitly
//! nested program produced by the parsing phase, resolving the nesting
//! primitives to flat operations of the engine via `matryoshka-core` — with
//! the runtime optimizer's physical choices (Sec. 8) applied by that crate.
//!
//! The interpreter runs in two modes. *Driver mode* evaluates ordinary
//! expressions over engine bags. When it reaches a `MapWithLiftedUdf`, it
//! evaluates the UDF body **once** in *lifted mode*, where every value is an
//! `InnerScalar`/`InnerBag` and every operation is the lifted operation:
//! scalars become tag-joined bags (Sec. 4.3), bags become tagged flat bags
//! (Sec. 4.4), loops become the lifted do-while (Sec. 6.2), closures become
//! tag joins or half-lifted cross products (Sec. 5, 8.3).
//!
//! In both modes a bag is either *rows* (one `Value` per record) or *keyed*:
//! native `(key, value)` pairs, as the engine's keyed operators and the
//! paper's `(tag, key)` re-keying take them. A map whose body is a literal
//! pair produces a keyed bag, keyed operators consume and produce keyed bags,
//! and UDFs over keyed bags bind their record parameter to the pair. Records
//! convert only where the other shape is needed (docs/ANALYSIS.md, "Keyed
//! records in the lowering").

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use matryoshka_core::{
    group_by_key_into_nested_bag, lifted_while, InnerBag, InnerScalar, LiftedData, LiftingContext,
    MatryoshkaConfig, NestedBag,
};
use matryoshka_engine::{Bag, Data, Engine, EngineError};

use crate::ast::{BinOp, Expr, Lambda, Lambda2, UnOp};
use crate::compile::{CompiledUdf, Record};
use crate::error::{IrError, IrResult};
use crate::value::Value;

/// A runtime value in driver mode.
#[derive(Clone)]
pub enum RtVal {
    /// A driver-side scalar.
    Scalar(Value),
    /// A flat distributed bag.
    Bag(Bag<Value>),
    /// A flattened nested bag.
    Nested(NestedBag<Value, Value, Value>),
}

impl std::fmt::Debug for RtVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtVal::Scalar(v) => write!(f, "Scalar({v})"),
            RtVal::Bag(_) => write!(f, "Bag(..)"),
            RtVal::Nested(_) => write!(f, "Nested(..)"),
        }
    }
}

/// A driver-mode value inside the lowering: an [`RtVal`] whose flat bags
/// may be keyed.
#[derive(Clone)]
enum DVal {
    Scalar(Value),
    Bag(DBag),
    Nested(NestedBag<Value, Value, Value>),
}

impl From<DVal> for RtVal {
    fn from(v: DVal) -> RtVal {
        match v {
            DVal::Scalar(x) => RtVal::Scalar(x),
            DVal::Bag(b) => RtVal::Bag(b.rows()),
            DVal::Nested(nb) => RtVal::Nested(nb),
        }
    }
}

/// A flat bag in driver mode.
#[derive(Clone)]
enum DBag {
    Rows(Bag<Value>),
    Keyed(Bag<(Value, Value)>),
}

/// An inner bag in lifted mode.
#[derive(Clone)]
enum LBag {
    Rows(InnerBag<Value, Value>),
    Keyed(InnerBag<Value, (Value, Value)>),
}

/// A runtime value in lifted mode.
#[derive(Clone)]
enum LVal {
    Scalar(InnerScalar<Value, Value>),
    Bag(LBag),
    /// The `(outer, inner)` parameter of a lifted UDF over a NestedBag.
    Pair(Box<LVal>, Box<LVal>),
    /// A closure from the driver environment, not yet lifted.
    Driver(DVal),
}

/// A row as a keyed record, where rows meet a keyed operator.
fn split_row(v: &Value) -> (Value, Value) {
    let k = v.proj(0).expect("pair-shaped record expected (parsing phase admits (k, v) bags)");
    let w = v.proj(1).expect("pair-shaped record");
    (k, w)
}

/// A keyed record as a row, where a row is needed.
fn pair_row((k, v): &(Value, Value)) -> Value {
    Value::tuple(vec![k.clone(), v.clone()])
}

/// A join's output record: the key, and the two values as one tuple.
fn join_pair((k, (v, w)): &(Value, (Value, Value))) -> (Value, Value) {
    (k.clone(), Value::tuple(vec![v.clone(), w.clone()]))
}

impl DBag {
    fn is_keyed(&self) -> bool {
        matches!(self, DBag::Keyed(_))
    }

    fn rows(&self) -> Bag<Value> {
        match self {
            DBag::Rows(b) => b.clone(),
            DBag::Keyed(b) => b.map(pair_row),
        }
    }

    fn pairs(&self) -> Bag<(Value, Value)> {
        match self {
            DBag::Rows(b) => b.map(split_row),
            DBag::Keyed(b) => b.clone(),
        }
    }

    fn map_records<U: Data>(&self, f: impl Fn(Record<'_>) -> U + Send + Sync + 'static) -> Bag<U> {
        match self {
            DBag::Rows(b) => b.map(move |v| f(Record::Row(v))),
            DBag::Keyed(b) => b.map(move |(k, v)| f(Record::Pair(k, v))),
        }
    }

    fn filter_records(&self, f: impl Fn(Record<'_>) -> bool + Send + Sync + 'static) -> DBag {
        match self {
            DBag::Rows(b) => DBag::Rows(b.filter(move |v| f(Record::Row(v)))),
            DBag::Keyed(b) => DBag::Keyed(b.filter(move |(k, v)| f(Record::Pair(k, v)))),
        }
    }

    fn flat_map_records(
        &self,
        f: impl Fn(Record<'_>) -> Vec<Value> + Send + Sync + 'static,
    ) -> Bag<Value> {
        match self {
            DBag::Rows(b) => b.flat_map(move |v| f(Record::Row(v))),
            DBag::Keyed(b) => b.flat_map(move |(k, v)| f(Record::Pair(k, v))),
        }
    }

    fn fold_records(
        &self,
        zero: Value,
        f: impl Fn(&Value, Record<'_>) -> Value,
    ) -> Result<Value, EngineError> {
        match self {
            DBag::Rows(b) => b.fold(zero, |acc, v| f(&acc, Record::Row(v))),
            DBag::Keyed(b) => b.fold(zero, |acc, (k, v)| f(&acc, Record::Pair(k, v))),
        }
    }

    /// A half-lifted cross product (Sec. 5.2/8.3) of lifted closure values
    /// with this bag.
    fn cross_records<U: Data>(
        &self,
        closure: &InnerScalar<Value, Value>,
        f: impl Fn(Record<'_>, &Value) -> U + Send + Sync + 'static,
    ) -> Result<InnerBag<Value, U>, EngineError> {
        match self {
            DBag::Rows(b) => closure.cross_with_bag(b, move |_t, c, v| Some(f(Record::Row(v), c))),
            DBag::Keyed(b) => {
                closure.cross_with_bag(b, move |_t, c, (k, v)| Some(f(Record::Pair(k, v), c)))
            }
        }
    }

    fn union(&self, other: &DBag) -> DBag {
        match (self, other) {
            (DBag::Keyed(a), DBag::Keyed(b)) => DBag::Keyed(a.union(b)),
            (a, b) => DBag::Rows(a.rows().union(&b.rows())),
        }
    }

    fn distinct(&self) -> DBag {
        match self {
            DBag::Rows(b) => DBag::Rows(b.distinct()),
            DBag::Keyed(b) => DBag::Keyed(b.distinct()),
        }
    }

    fn count(&self) -> Result<u64, EngineError> {
        match self {
            DBag::Rows(b) => b.count(),
            DBag::Keyed(b) => b.count(),
        }
    }

    fn cache(&self) -> DBag {
        match self {
            DBag::Rows(b) => DBag::Rows(b.cache()),
            DBag::Keyed(b) => DBag::Keyed(b.cache()),
        }
    }
}

impl LBag {
    fn is_keyed(&self) -> bool {
        matches!(self, LBag::Keyed(_))
    }

    fn rows(&self) -> InnerBag<Value, Value> {
        match self {
            LBag::Rows(b) => b.clone(),
            LBag::Keyed(b) => b.map(pair_row),
        }
    }

    fn pairs(&self) -> InnerBag<Value, (Value, Value)> {
        match self {
            LBag::Rows(b) => b.map(split_row),
            LBag::Keyed(b) => b.clone(),
        }
    }

    fn map_records<U: Data>(
        &self,
        f: impl Fn(Record<'_>) -> U + Send + Sync + 'static,
    ) -> InnerBag<Value, U> {
        match self {
            LBag::Rows(b) => b.map(move |v| f(Record::Row(v))),
            LBag::Keyed(b) => b.map(move |(k, v)| f(Record::Pair(k, v))),
        }
    }

    /// `mapWithClosure` (Sec. 5.1): a tag join with the lifted closure values.
    fn map_records_with_scalar<U: Data>(
        &self,
        closure: &InnerScalar<Value, Value>,
        f: impl Fn(Record<'_>, &Value) -> U + Send + Sync + 'static,
    ) -> InnerBag<Value, U> {
        match self {
            LBag::Rows(b) => b.map_with_scalar(closure, move |v, c| f(Record::Row(v), c)),
            LBag::Keyed(b) => b.map_with_scalar(closure, move |(k, v), c| f(Record::Pair(k, v), c)),
        }
    }

    fn filter_records(&self, f: impl Fn(Record<'_>) -> bool + Send + Sync + 'static) -> LBag {
        match self {
            LBag::Rows(b) => LBag::Rows(b.filter(move |v| f(Record::Row(v)))),
            LBag::Keyed(b) => LBag::Keyed(b.filter(move |(k, v)| f(Record::Pair(k, v)))),
        }
    }

    fn filter_records_with_scalar(
        &self,
        closure: &InnerScalar<Value, Value>,
        f: impl Fn(Record<'_>, &Value) -> bool + Send + Sync + 'static,
    ) -> LBag {
        match self {
            LBag::Rows(b) => {
                LBag::Rows(b.filter_with_scalar(closure, move |v, c| f(Record::Row(v), c)))
            }
            LBag::Keyed(b) => LBag::Keyed(
                b.filter_with_scalar(closure, move |(k, v), c| f(Record::Pair(k, v), c)),
            ),
        }
    }

    fn flat_map_records(
        &self,
        f: impl Fn(Record<'_>) -> Vec<Value> + Send + Sync + 'static,
    ) -> InnerBag<Value, Value> {
        match self {
            LBag::Rows(b) => b.flat_map(move |v| f(Record::Row(v))),
            LBag::Keyed(b) => b.flat_map(move |(k, v)| f(Record::Pair(k, v))),
        }
    }

    fn fold_records(
        &self,
        zero: Value,
        step: impl Fn(&Value, Record<'_>) -> Value + Send + Sync + 'static,
        combine: impl Fn(&Value, &Value) -> Value + Send + Sync + 'static,
    ) -> InnerScalar<Value, Value> {
        match self {
            LBag::Rows(b) => b.fold(zero, move |a, v| step(a, Record::Row(v)), combine),
            LBag::Keyed(b) => b.fold(zero, move |a, (k, v)| step(a, Record::Pair(k, v)), combine),
        }
    }

    fn union(&self, other: &LBag) -> LBag {
        match (self, other) {
            (LBag::Keyed(a), LBag::Keyed(b)) => LBag::Keyed(a.union(b)),
            (a, b) => LBag::Rows(a.rows().union(&b.rows())),
        }
    }

    fn distinct(&self) -> LBag {
        match self {
            LBag::Rows(b) => LBag::Rows(b.distinct()),
            LBag::Keyed(b) => LBag::Keyed(b.distinct()),
        }
    }

    fn count(&self) -> InnerScalar<Value, u64> {
        match self {
            LBag::Rows(b) => b.count(),
            LBag::Keyed(b) => b.count(),
        }
    }

    /// Cache the tagged representation bag.
    fn cache(&self) -> LBag {
        match self {
            LBag::Rows(b) => LBag::Rows(InnerBag::from_repr(b.repr().cache(), b.ctx().clone())),
            LBag::Keyed(b) => LBag::Keyed(InnerBag::from_repr(b.repr().cache(), b.ctx().clone())),
        }
    }
}

/// What a map UDF emits per record: a row, or — when its body is a literal
/// pair — a keyed record, computed without building the tuple.
trait Emit: Data {
    fn eval(f: &CompiledUdf, rec: Record<'_>, combined: Option<&Value>) -> IrResult<Self>;
    fn driver(b: Bag<Self>) -> DBag;
    fn inner(b: InnerBag<Value, Self>) -> LBag;
}

impl Emit for Value {
    fn eval(f: &CompiledUdf, rec: Record<'_>, combined: Option<&Value>) -> IrResult<Value> {
        f.eval_record(rec, combined)
    }
    fn driver(b: Bag<Value>) -> DBag {
        DBag::Rows(b)
    }
    fn inner(b: InnerBag<Value, Value>) -> LBag {
        LBag::Rows(b)
    }
}

impl Emit for (Value, Value) {
    fn eval(f: &CompiledUdf, rec: Record<'_>, combined: Option<&Value>) -> IrResult<Self> {
        f.eval_record_kv(rec, combined)
    }
    fn driver(b: Bag<Self>) -> DBag {
        DBag::Keyed(b)
    }
    fn inner(b: InnerBag<Value, Self>) -> LBag {
        LBag::Keyed(b)
    }
}

/// Does a map with this body emit keyed records? Only a literal pair does.
fn emits_pairs(body: &Expr) -> bool {
    matches!(body.unspanned(), Expr::Tuple(items) if items.len() == 2)
}

/// A map over a driver bag, emitting `O` records.
fn map_driver<O: Emit>(bag: &DBag, f: Arc<CompiledUdf>, what: &'static str) -> DBag {
    O::driver(bag.map_records(move |r| O::eval(&f, r, None).expect(what)))
}

/// Executes parsed programs on an engine.
pub struct Lowering {
    engine: Engine,
    config: MatryoshkaConfig,
    /// Per-body closure-capture memo (see [`Lowering::memo_capture_names`]).
    captures_memo: Mutex<HashMap<usize, CachedCaptures>>,
}

/// One memoized capture set, keyed by the body's `Arc` pointer.
struct CachedCaptures {
    /// Pins the body alive so the pointer key can never be reused by a
    /// different (dropped-and-reallocated) expression.
    _body: Arc<Expr>,
    /// The skip list the set was computed under (re-verified on each hit).
    skip: Vec<String>,
    names: Arc<Vec<String>>,
}

type Env = HashMap<String, DVal>;
type LEnv = HashMap<String, LVal>;
type PureEnv = HashMap<String, Value>;

/// Evaluate a scalar-only expression over plain values (used inside engine
/// UDF closures, where the parsing phase guarantees no bag operations
/// remain). Loops and conditionals over scalars are allowed.
///
/// This is the *reference* interpreter: per-record UDF hot paths run
/// slot-compiled programs instead ([`crate::compile::CompiledUdf`]), with
/// this function kept as the differential-testing oracle and as the
/// `MatryoshkaConfig::interpret_udfs` ablation path.
pub fn eval_pure(e: &Expr, env: &PureEnv) -> IrResult<Value> {
    let mut scratch = env.clone();
    eval_pure_mut(e, &mut scratch)
}

/// [`eval_pure`] over a mutable environment: each binder inserts in place
/// and restores the shadowed value on scope exit, instead of cloning the
/// whole map per binding (which made deep `let`-chains quadratic).
pub(crate) fn eval_pure_mut(e: &Expr, env: &mut PureEnv) -> IrResult<Value> {
    Ok(match e {
        Expr::Spanned(_, inner) => eval_pure_mut(inner, env)?,
        Expr::Const(v) => v.clone(),
        Expr::Var(n) => env.get(n).cloned().ok_or_else(|| IrError::Unbound(n.clone()))?,
        Expr::Tuple(items) => {
            Value::tuple(items.iter().map(|x| eval_pure_mut(x, env)).collect::<IrResult<_>>()?)
        }
        Expr::Proj(x, i) => eval_pure_mut(x, env)?.proj(*i)?,
        Expr::Bin(op, a, b) => {
            let av = eval_pure_mut(a, env)?;
            let bv = eval_pure_mut(b, env)?;
            apply_bin(*op, &av, &bv)?
        }
        Expr::Un(op, a) => apply_un(*op, &eval_pure_mut(a, env)?)?,
        Expr::Let(n, v, b) => {
            let bound = eval_pure_mut(v, env)?;
            let saved = env.insert(n.clone(), bound);
            let r = eval_pure_mut(b, env);
            restore(env, n, saved);
            r?
        }
        Expr::If(c, t, el) => {
            if eval_pure_mut(c, env)?.as_bool()? {
                eval_pure_mut(t, env)?
            } else {
                eval_pure_mut(el, env)?
            }
        }
        Expr::Loop { init, cond, step, result } => {
            let mut saved = Vec::with_capacity(init.len());
            let r = eval_pure_loop(init, cond, step, result, env, &mut saved);
            // Unwind in reverse so duplicated loop-variable names restore
            // to the outermost shadowed value, even when `r` is an error.
            for (n, old) in saved.into_iter().rev() {
                restore(env, n, old);
            }
            r?
        }
        // A materialization hint on a scalar is the identity (nothing to
        // cache: scalar evaluation is already by-value).
        Expr::Cache(x) => eval_pure_mut(x, env)?,
        other => {
            return Err(IrError::Unsupported(format!(
                "bag operation in a scalar-only context: {other:?}"
            )))
        }
    })
}

/// Undo one scoped binding: put back the shadowed value, or remove.
fn restore(env: &mut PureEnv, name: &str, saved: Option<Value>) {
    match saved {
        Some(old) => {
            env.insert(name.to_string(), old);
        }
        None => {
            env.remove(name);
        }
    }
}

/// The body of a scalar loop; every binding it performs is recorded in
/// `saved` so the caller can unwind the scope on success *and* on error.
fn eval_pure_loop<'a>(
    init: &'a [(String, Expr)],
    cond: &Expr,
    step: &[Expr],
    result: &Expr,
    env: &mut PureEnv,
    saved: &mut Vec<(&'a str, Option<Value>)>,
) -> IrResult<Value> {
    for (n, x) in init {
        let v = eval_pure_mut(x, env)?;
        saved.push((n, env.insert(n.clone(), v)));
    }
    while eval_pure_mut(cond, env)?.as_bool()? {
        let next: Vec<Value> =
            step.iter().map(|x| eval_pure_mut(x, env)).collect::<IrResult<_>>()?;
        for ((n, _), v) in init.iter().zip(next) {
            env.insert(n.clone(), v);
        }
    }
    eval_pure_mut(result, env)
}

/// Apply a binary scalar operator.
pub fn apply_bin(op: BinOp, a: &Value, b: &Value) -> IrResult<Value> {
    Ok(match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => match (a, b) {
            (Value::Long(x), Value::Long(y)) => Value::Long(match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                _ => x * y,
            }),
            _ => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                Value::Double(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    _ => x * y,
                })
            }
        },
        BinOp::Div => Value::Double(a.as_f64()? / b.as_f64()?),
        BinOp::Eq => Value::Bool(a == b),
        BinOp::Lt => Value::Bool(a.as_f64()? < b.as_f64()?),
        BinOp::Gt => Value::Bool(a.as_f64()? > b.as_f64()?),
        BinOp::And => Value::Bool(a.as_bool()? && b.as_bool()?),
        BinOp::Or => Value::Bool(a.as_bool()? || b.as_bool()?),
    })
}

/// Apply a unary scalar operator.
pub fn apply_un(op: UnOp, a: &Value) -> IrResult<Value> {
    Ok(match op {
        UnOp::Not => Value::Bool(!a.as_bool()?),
        UnOp::Neg => match a {
            Value::Long(x) => Value::Long(-x),
            _ => Value::Double(-a.as_f64()?),
        },
        UnOp::ToDouble => Value::Double(a.as_f64()?),
    })
}

/// Resolve capture names against the lifted environment: every name must be
/// a plain scalar (goes into the pure env) or a lifted scalar (returned
/// separately for the tag join).
fn resolve_lifted_captures(
    names: &[String],
    lenv: &LEnv,
) -> IrResult<(PureEnv, Vec<(String, InnerScalar<Value, Value>)>)> {
    let mut pure = PureEnv::new();
    let mut lifted = Vec::new();
    for name in names {
        match lenv.get(name) {
            Some(LVal::Scalar(s)) => lifted.push((name.clone(), s.clone())),
            Some(LVal::Driver(DVal::Scalar(v))) => {
                pure.insert(name.clone(), v.clone());
            }
            Some(other) => {
                let kind = match other {
                    LVal::Bag(_) => "an inner bag",
                    LVal::Pair(..) => "a nested value",
                    LVal::Driver(_) => "a driver bag",
                    LVal::Scalar(_) => unreachable!(),
                };
                return Err(IrError::Unsupported(format!(
                    "UDF captures {kind} ({name}); only scalars can be captured by leaf UDFs"
                )));
            }
            None => return Err(IrError::Unbound(name.clone())),
        }
    }
    Ok((pure, lifted))
}

/// Resolve capture names against the driver environment: every name must be
/// a scalar.
fn resolve_driver_captures(names: &[String], env: &Env) -> IrResult<PureEnv> {
    let mut pure = PureEnv::new();
    for name in names {
        match env.get(name) {
            Some(DVal::Scalar(v)) => {
                pure.insert(name.clone(), v.clone());
            }
            Some(_) => {
                return Err(IrError::Unsupported(format!(
                    "UDF captures the bag {name}; nested bag use requires lifting \
                     (run the parsing phase)"
                )))
            }
            None => return Err(IrError::Unbound(name.clone())),
        }
    }
    Ok(pure)
}

/// Zip several lifted scalars into one whose values are tuples (so a single
/// tag join delivers all closure values, like the paper's single
/// `mapWithClosure` argument).
fn combine_scalars(scalars: &[(String, InnerScalar<Value, Value>)]) -> InnerScalar<Value, Value> {
    let mut iter = scalars.iter();
    let (_, first) = iter.next().expect("at least one lifted closure");
    let mut combined = first.map(|v| Value::tuple(vec![v.clone()]));
    for (_, s) in iter {
        combined = combined.zip_with(s, |t, v| {
            let mut items = match t {
                Value::Tuple(xs) => xs.as_ref().clone(),
                _ => unreachable!("combined closure is a tuple"),
            };
            items.push(v.clone());
            Value::tuple(items)
        });
    }
    combined
}

fn to_engine_err(e: IrError) -> EngineError {
    match e {
        IrError::Engine(e) => e,
        other => EngineError::InvalidPlan(other.to_string()),
    }
}

/// Loop state for lifted `Loop`s: a vector of lifted values.
#[derive(Clone)]
struct LState(Vec<LStateItem>);

/// One lifted loop variable. Loop-carried bags are rows, so a variable's
/// shape is the same in every iteration.
#[derive(Clone)]
enum LStateItem {
    S(InnerScalar<Value, Value>),
    B(InnerBag<Value, Value>),
}

impl LStateItem {
    /// A loop variable's value, or `None` for a value a loop cannot carry.
    fn of(v: LVal, ctx: &LiftingContext<Value>) -> Option<LStateItem> {
        match v {
            LVal::Scalar(s) => Some(LStateItem::S(s)),
            LVal::Bag(b) => Some(LStateItem::B(b.rows())),
            LVal::Driver(DVal::Scalar(x)) => Some(LStateItem::S(ctx.constant(x))),
            _ => None,
        }
    }

    fn to_lval(&self) -> LVal {
        match self {
            LStateItem::S(s) => LVal::Scalar(s.clone()),
            LStateItem::B(b) => LVal::Bag(LBag::Rows(b.clone())),
        }
    }
}

impl LiftedData<Value> for LState {
    fn ctx(&self) -> &LiftingContext<Value> {
        match self.0.first().expect("loop has at least one variable") {
            LStateItem::S(s) => s.ctx(),
            LStateItem::B(b) => b.ctx(),
        }
    }
    fn filter_by_cond(
        &self,
        cond: &InnerScalar<Value, bool>,
        keep: bool,
        new_ctx: &LiftingContext<Value>,
    ) -> Self {
        LState(
            self.0
                .iter()
                .map(|it| match it {
                    LStateItem::S(s) => LStateItem::S(s.filter_by_cond(cond, keep, new_ctx)),
                    LStateItem::B(b) => LStateItem::B(b.filter_by_cond(cond, keep, new_ctx)),
                })
                .collect(),
        )
    }
    fn union_with(&self, other: &Self) -> Self {
        LState(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| match (a, b) {
                    (LStateItem::S(x), LStateItem::S(y)) => LStateItem::S(x.union_with(y)),
                    (LStateItem::B(x), LStateItem::B(y)) => LStateItem::B(x.union_with(y)),
                    _ => unreachable!("loop variable shapes are stable"),
                })
                .collect(),
        )
    }
    fn with_ctx(&self, ctx: &LiftingContext<Value>) -> Self {
        LState(
            self.0
                .iter()
                .map(|it| match it {
                    LStateItem::S(s) => LStateItem::S(LiftedData::with_ctx(s, ctx)),
                    LStateItem::B(b) => LStateItem::B(LiftedData::with_ctx(b, ctx)),
                })
                .collect(),
        )
    }
    fn checkpoint(&self) -> Self {
        LState(
            self.0
                .iter()
                .map(|it| match it {
                    LStateItem::S(s) => LStateItem::S(LiftedData::checkpoint(s)),
                    LStateItem::B(b) => LStateItem::B(LiftedData::checkpoint(b)),
                })
                .collect(),
        )
    }
}

impl Lowering {
    /// Create a lowering over `engine` with the given optimizer config.
    pub fn new(engine: Engine, config: MatryoshkaConfig) -> Lowering {
        Lowering { engine, config, captures_memo: Mutex::new(HashMap::new()) }
    }

    /// Closure capture names for a UDF body, memoized per `Arc`'d body node:
    /// lifted loops re-lower the same bodies every iteration, and every
    /// operator consults its UDF's capture set — so the free-variable walk
    /// runs once per distinct body and is reused. The cached entry pins the
    /// `Arc` so a pointer key can never be reused by a different expression,
    /// and records the skip list it was computed under.
    fn memo_capture_names(&self, body: &Arc<Expr>, skip: &[&str]) -> Arc<Vec<String>> {
        let key = Arc::as_ptr(body) as usize;
        let mut memo = self.captures_memo.lock().expect("captures memo poisoned");
        if let Some(c) = memo.get(&key) {
            if c.skip.iter().map(String::as_str).eq(skip.iter().copied()) {
                return Arc::clone(&c.names);
            }
        }
        let names = Arc::new(crate::analyze::captures::capture_names(body, skip));
        memo.insert(
            key,
            CachedCaptures {
                _body: Arc::clone(body),
                skip: skip.iter().map(|s| s.to_string()).collect(),
                names: Arc::clone(&names),
            },
        );
        names
    }

    /// Memoized capture split for lifted-mode UDFs.
    fn split_captures(
        &self,
        body: &Arc<Expr>,
        skip: &[&str],
        lenv: &LEnv,
    ) -> IrResult<(PureEnv, Vec<(String, InnerScalar<Value, Value>)>)> {
        resolve_lifted_captures(&self.memo_capture_names(body, skip), lenv)
    }

    /// Memoized capture resolution for driver-mode UDFs (scalars only).
    fn driver_captures(&self, body: &Arc<Expr>, skip: &[&str], env: &Env) -> IrResult<PureEnv> {
        resolve_driver_captures(&self.memo_capture_names(body, skip), env)
    }

    /// Compile a UDF body once per lowering site for per-record evaluation;
    /// `params[i]` is pair-bound when `pair` is `Some(i)` (a record of a
    /// keyed bag). `MatryoshkaConfig::interpret_udfs` forces the interpreted
    /// path (the `udf_eval` ablation arm).
    fn compile_udf(
        &self,
        body: &Arc<Expr>,
        params: &[&str],
        pair: Option<usize>,
        captures: PureEnv,
    ) -> Arc<CompiledUdf> {
        let interpret = self.config.interpret_udfs;
        Arc::new(match pair {
            Some(i) => CompiledUdf::with_pair_param(body, params, i, captures, interpret),
            None => CompiledUdf::new(body, params, captures, interpret),
        })
    }

    /// Compile a record UDF (map, filter, flatMap) over a `keyed` or row bag.
    fn compile_record(&self, udf: &Lambda, keyed: bool, captures: PureEnv) -> Arc<CompiledUdf> {
        self.compile_udf(&udf.body, &[&udf.param], keyed.then_some(0), captures)
    }

    /// Compile a two-parameter combiner (reduceByKey/fold; captures are
    /// empty — aggregation UDFs close over nothing, validated at parse).
    fn compile_udf2(&self, l2: &Lambda2) -> Arc<CompiledUdf> {
        self.compile_udf(&l2.body, &[&l2.a, &l2.b], None, PureEnv::new())
    }

    /// Compile a fold step `(acc, record) => ..` over a `keyed` or row bag.
    fn compile_fold_step(&self, l2: &Lambda2, keyed: bool) -> Arc<CompiledUdf> {
        self.compile_udf(&l2.body, &[&l2.a, &l2.b], keyed.then_some(1), PureEnv::new())
    }

    /// Compile a lifted-closure UDF: parameter 0 is the lambda's own
    /// parameter (pair-bound over a `keyed` bag), parameters 1.. are the
    /// lifted capture names, delivered per record as one combined tuple
    /// ([`CompiledUdf::eval_record`]).
    fn compile_combined(
        &self,
        udf: &Lambda,
        lifted: &[(String, InnerScalar<Value, Value>)],
        keyed: bool,
        pure: PureEnv,
    ) -> Arc<CompiledUdf> {
        let mut params: Vec<&str> = Vec::with_capacity(1 + lifted.len());
        params.push(&udf.param);
        params.extend(lifted.iter().map(|(n, _)| n.as_str()));
        self.compile_udf(&udf.body, &params, keyed.then_some(0), pure)
    }

    /// Execute a parsed program. `inputs` binds the program's `Source`
    /// names to engine bags.
    ///
    /// When plan rewrites are enabled in the config (they are off by
    /// default), the program first runs through
    /// [`crate::analyze::plan::rewrite_plan`] and each applied rewrite is
    /// recorded in the engine's decision log under the `plan_rewrite` site.
    pub fn run(&self, program: &Expr, inputs: &HashMap<String, Bag<Value>>) -> IrResult<RtVal> {
        if self.config.plan.enabled {
            let rewritten = crate::analyze::plan::rewrite_plan(program, &self.config.plan);
            for r in &rewritten.rewrites {
                self.engine.record_decision("plan_rewrite", r.code, 0, 0, r.to_string());
            }
            return self.eval(&rewritten.expr, &Env::new(), inputs).map(RtVal::from);
        }
        self.eval(program, &Env::new(), inputs).map(RtVal::from)
    }

    fn eval(&self, e: &Expr, env: &Env, inputs: &HashMap<String, Bag<Value>>) -> IrResult<DVal> {
        Ok(match e {
            Expr::Spanned(_, inner) => self.eval(inner, env, inputs)?,
            Expr::Const(v) => DVal::Scalar(v.clone()),
            Expr::Var(n) => env.get(n).cloned().ok_or_else(|| IrError::Unbound(n.clone()))?,
            Expr::Source(n) => DVal::Bag(DBag::Rows(
                inputs.get(n).cloned().ok_or_else(|| IrError::Unbound(format!("source {n}")))?,
            )),
            Expr::Tuple(items) => {
                let vals: Vec<Value> = items
                    .iter()
                    .map(|x| match self.eval(x, env, inputs)? {
                        DVal::Scalar(v) => Ok(v),
                        _ => Err(IrError::Unsupported("bag inside tuple".into())),
                    })
                    .collect::<IrResult<_>>()?;
                DVal::Scalar(Value::tuple(vals))
            }
            Expr::Proj(x, i) => match self.eval(x, env, inputs)? {
                DVal::Scalar(v) => DVal::Scalar(v.proj(*i)?),
                _ => return Err(IrError::Type("projection on a bag".into())),
            },
            Expr::Bin(op, a, b) => {
                let (a, b) = (self.scalar(a, env, inputs)?, self.scalar(b, env, inputs)?);
                DVal::Scalar(apply_bin(*op, &a, &b)?)
            }
            Expr::Un(op, a) => DVal::Scalar(apply_un(*op, &self.scalar(a, env, inputs)?)?),
            Expr::Let(n, v, b) => {
                let rv = self.eval(v, env, inputs)?;
                let mut env2 = env.clone();
                env2.insert(n.clone(), rv);
                self.eval(b, &env2, inputs)?
            }
            Expr::If(c, t, el) => {
                if self.scalar(c, env, inputs)?.as_bool()? {
                    self.eval(t, env, inputs)?
                } else {
                    self.eval(el, env, inputs)?
                }
            }
            Expr::Loop { init, cond, step, result } => {
                let mut env2 = env.clone();
                let names: Vec<&String> = init.iter().map(|(n, _)| n).collect();
                for (n, x) in init {
                    let v = self.eval(x, &env2, inputs)?;
                    env2.insert(n.clone(), v);
                }
                while self.scalar(cond, &env2, inputs)?.as_bool()? {
                    let next: Vec<DVal> = step
                        .iter()
                        .map(|x| self.eval(x, &env2, inputs))
                        .collect::<IrResult<_>>()?;
                    for (n, v) in names.iter().zip(next) {
                        env2.insert((*n).clone(), v);
                    }
                }
                self.eval(result, &env2, inputs)?
            }
            Expr::Map(input, udf) => {
                let bag = self.bag(input, env, inputs)?;
                let pure = self.driver_captures(&udf.body, &[&udf.param], env)?;
                let f = self.compile_record(udf, bag.is_keyed(), pure);
                let what = "scalar UDF evaluation (validated at parse)";
                DVal::Bag(if emits_pairs(&udf.body) {
                    map_driver::<(Value, Value)>(&bag, f, what)
                } else {
                    map_driver::<Value>(&bag, f, what)
                })
            }
            Expr::Filter(input, udf) => {
                let bag = self.bag(input, env, inputs)?;
                let pure = self.driver_captures(&udf.body, &[&udf.param], env)?;
                let f = self.compile_record(udf, bag.is_keyed(), pure);
                DVal::Bag(bag.filter_records(move |r| {
                    f.eval_record(r, None)
                        .and_then(|v| v.as_bool())
                        .expect("boolean filter UDF (validated at parse)")
                }))
            }
            Expr::FlatMapTuple(input, udf) => {
                let bag = self.bag(input, env, inputs)?;
                let pure = self.driver_captures(&udf.body, &[&udf.param], env)?;
                let f = self.compile_record(udf, bag.is_keyed(), pure);
                DVal::Bag(DBag::Rows(bag.flat_map_records(move |r| {
                    f.eval_record(r, None).expect("scalar UDF").splat_tuple()
                })))
            }
            Expr::GroupByKey(_) => {
                return Err(IrError::Unsupported(
                    "raw groupByKey cannot execute; run the parsing phase first \
                     (it becomes groupByKeyIntoNestedBag)"
                        .into(),
                ))
            }
            Expr::GroupByKeyIntoNestedBag(x) => {
                let bag = self.bag(x, env, inputs)?;
                DVal::Nested(group_by_key_into_nested_bag(
                    &self.engine,
                    &bag.pairs(),
                    self.config.clone(),
                )?)
            }
            Expr::ReduceByKey(x, l2) => {
                let bag = self.bag(x, env, inputs)?;
                let f = self.compile_udf2(l2);
                DVal::Bag(DBag::Keyed(bag.pairs().reduce_by_key(move |a, b| {
                    f.eval2(a, b).expect("scalar aggregation UDF (validated at parse)")
                })))
            }
            Expr::Join(a, b) => {
                let (a, b) = (self.bag(a, env, inputs)?, self.bag(b, env, inputs)?);
                DVal::Bag(DBag::Keyed(a.pairs().join(&b.pairs()).map(join_pair)))
            }
            Expr::Union(a, b) => {
                DVal::Bag(self.bag(a, env, inputs)?.union(&self.bag(b, env, inputs)?))
            }
            Expr::Distinct(x) => DVal::Bag(self.bag(x, env, inputs)?.distinct()),
            Expr::Count(x) => match self.eval(x, env, inputs)? {
                DVal::Bag(b) => DVal::Scalar(Value::Long(b.count()? as i64)),
                DVal::Nested(nb) => DVal::Scalar(Value::Long(nb.ctx().size() as i64)),
                DVal::Scalar(_) => return Err(IrError::Type("count of a scalar".into())),
            },
            Expr::Fold(x, zero, l2) => {
                let bag = self.bag(x, env, inputs)?;
                let z = self.scalar(zero, env, inputs)?;
                let f = self.compile_fold_step(l2, bag.is_keyed());
                DVal::Scalar(bag.fold_records(z, move |acc, r| {
                    f.eval_fold(acc, r).expect("scalar aggregation UDF (validated at parse)")
                })?)
            }
            Expr::MapWithLiftedUdf { input, udf, closures } => {
                self.eval_map_with_lifted_udf(input, udf, closures, env, inputs)?
            }
            // Explicit materialization hint (inserted by the plan-rewrite
            // pass or written as `cache(e)`): a dedicated engine node whose
            // memoized partitions every consumer shares, and a fusion
            // barrier so narrow chains cannot recompute the parent.
            Expr::Cache(x) => match self.eval(x, env, inputs)? {
                DVal::Bag(b) => DVal::Bag(b.cache()),
                other => other,
            },
        })
    }

    fn scalar(&self, e: &Expr, env: &Env, inputs: &HashMap<String, Bag<Value>>) -> IrResult<Value> {
        match self.eval(e, env, inputs)? {
            DVal::Scalar(v) => Ok(v),
            _ => Err(IrError::Type("expected a scalar".into())),
        }
    }

    fn bag(&self, e: &Expr, env: &Env, inputs: &HashMap<String, Bag<Value>>) -> IrResult<DBag> {
        match self.eval(e, env, inputs)? {
            DVal::Bag(b) => Ok(b),
            _ => Err(IrError::Type("expected a flat bag".into())),
        }
    }

    /// `mapWithLiftedUDF`: invoke the UDF once, in lifted mode (Sec. 4.2).
    fn eval_map_with_lifted_udf(
        &self,
        input: &Expr,
        udf: &Lambda,
        closures: &[String],
        env: &Env,
        inputs: &HashMap<String, Bag<Value>>,
    ) -> IrResult<DVal> {
        let (ctx, param_val) = match self.eval(input, env, inputs)? {
            DVal::Nested(nb) => {
                let ctx = nb.ctx().clone();
                let pv = LVal::Pair(
                    Box::new(LVal::Scalar(nb.outer().clone())),
                    Box::new(LVal::Bag(LBag::Rows(nb.inner().clone()))),
                );
                (ctx, pv)
            }
            DVal::Bag(b) => {
                // Non-nested input: tags via zipWithUniqueId (Sec. 4.3). The
                // record is a lifted scalar, so it is a row.
                let tagged = b
                    .rows()
                    .zip_with_unique_id()
                    .map(|(v, id)| (Value::Long(*id as i64), v.clone()));
                let tags = tagged.map(|(t, _)| t.clone());
                let ctx = LiftingContext::counted(self.engine.clone(), tags, self.config.clone())?;
                (ctx.clone(), LVal::Scalar(InnerScalar::from_repr(tagged, ctx)))
            }
            DVal::Scalar(_) => return Err(IrError::Type("mapWithLiftedUDF over a scalar".into())),
        };
        let mut lenv = LEnv::new();
        lenv.insert(udf.param.clone(), param_val);
        for name in closures {
            let v = env.get(name).cloned().ok_or_else(|| IrError::Unbound(name.clone()))?;
            lenv.insert(name.clone(), LVal::Driver(v));
        }
        match self.eval_lifted(&udf.body, &lenv, &ctx, inputs)? {
            // A scalar-valued UDF: the map's result is the bag of per-tag
            // results.
            LVal::Scalar(s) => Ok(DVal::Bag(DBag::Rows(s.repr().map(|(_, v)| v.clone())))),
            LVal::Pair(a, b) => {
                let s = self.pair_to_scalar(LVal::Pair(a, b), &ctx)?;
                Ok(DVal::Bag(DBag::Rows(s.repr().map(|(_, v)| v.clone()))))
            }
            // A bag-valued UDF: the result is nested again.
            LVal::Bag(b) => Ok(DVal::Nested(NestedBag::from_parts(ctx.tags_scalar(), b.rows()))),
            LVal::Driver(_) => Err(IrError::Type("lifted UDF returned a driver value".into())),
        }
    }

    fn pair_to_scalar(
        &self,
        v: LVal,
        ctx: &LiftingContext<Value>,
    ) -> IrResult<InnerScalar<Value, Value>> {
        match v {
            LVal::Scalar(s) => Ok(s),
            LVal::Driver(DVal::Scalar(x)) => Ok(ctx.constant(x)),
            LVal::Pair(a, b) => {
                let a = self.pair_to_scalar(*a, ctx)?;
                let b = self.pair_to_scalar(*b, ctx)?;
                Ok(a.zip_with(&b, |x, y| Value::tuple(vec![x.clone(), y.clone()])))
            }
            LVal::Bag(_) => Err(IrError::Type("an inner bag where a scalar is needed".into())),
            LVal::Driver(_) => Err(IrError::Type("a driver bag where a scalar is needed".into())),
        }
    }

    /// A lifted `map` emitting `O` records.
    fn lifted_map<O: Emit>(
        &self,
        inp: LVal,
        udf: &Lambda,
        pure: PureEnv,
        lifted: &[(String, InnerScalar<Value, Value>)],
    ) -> IrResult<LVal> {
        Ok(match inp {
            LVal::Bag(b) if lifted.is_empty() => {
                let f = self.compile_record(udf, b.is_keyed(), pure);
                LVal::Bag(O::inner(
                    b.map_records(move |r| O::eval(&f, r, None).expect("lifted map UDF")),
                ))
            }
            // mapWithClosure (Sec. 5.1): the UDF reads lifted scalars -> tag
            // join. The compiled UDF binds the joined closure tuple's
            // components as parameters 1.. .
            LVal::Bag(b) => {
                let combined = combine_scalars(lifted);
                let f = self.compile_combined(udf, lifted, b.is_keyed(), pure);
                LVal::Bag(O::inner(b.map_records_with_scalar(&combined, move |r, c| {
                    O::eval(&f, r, Some(c)).expect("mapWithClosure UDF")
                })))
            }
            // Half-lifted mapWithClosure (Sec. 5.2/8.3): mapping a *driver*
            // bag with lifted closures is a cross product.
            LVal::Driver(DVal::Bag(db)) if !lifted.is_empty() => {
                let combined = combine_scalars(lifted);
                let f = self.compile_combined(udf, lifted, db.is_keyed(), pure);
                LVal::Bag(O::inner(db.cross_records(&combined, move |r, c| {
                    O::eval(&f, r, Some(c)).expect("half-lifted UDF")
                })?))
            }
            // No lifted state involved: stays a driver map.
            LVal::Driver(DVal::Bag(db)) => {
                let f = self.compile_record(udf, db.is_keyed(), pure);
                LVal::Driver(DVal::Bag(map_driver::<O>(&db, f, "driver map UDF")))
            }
            _ => return Err(IrError::Type("map over a non-bag".into())),
        })
    }

    fn eval_lifted(
        &self,
        e: &Expr,
        lenv: &LEnv,
        ctx: &LiftingContext<Value>,
        inputs: &HashMap<String, Bag<Value>>,
    ) -> IrResult<LVal> {
        Ok(match e {
            Expr::Spanned(_, inner) => self.eval_lifted(inner, lenv, ctx, inputs)?,
            // A literal inside a lifted UDF is the lifted-UDF closure case
            // of Sec. 5.2: replicate per tag.
            Expr::Const(v) => LVal::Scalar(ctx.constant(v.clone())),
            Expr::Var(n) => {
                let v = lenv.get(n).cloned().ok_or_else(|| IrError::Unbound(n.clone()))?;
                match v {
                    LVal::Driver(DVal::Scalar(x)) => LVal::Scalar(ctx.constant(x)),
                    other => other,
                }
            }
            // A source read inside a lifted UDF is a driver-side bag
            // closure (the hyperparameter-optimization shape of Sec. 2.3):
            // consumed via half-lifted operations.
            Expr::Source(n) => LVal::Driver(DVal::Bag(DBag::Rows(
                inputs.get(n).cloned().ok_or_else(|| IrError::Unbound(format!("source {n}")))?,
            ))),
            Expr::Tuple(items) => {
                let parts: Vec<InnerScalar<Value, Value>> = items
                    .iter()
                    .map(|x| {
                        let v = self.eval_lifted(x, lenv, ctx, inputs)?;
                        self.pair_to_scalar(v, ctx)
                    })
                    .collect::<IrResult<_>>()?;
                let mut iter = parts.into_iter();
                let first = iter
                    .next()
                    .ok_or_else(|| IrError::Type("empty tuple".into()))?
                    .map(|v| Value::tuple(vec![v.clone()]));
                let combined = iter.fold(first, |acc, s| {
                    acc.zip_with(&s, |t, v| {
                        let mut items = match t {
                            Value::Tuple(xs) => xs.as_ref().clone(),
                            _ => unreachable!(),
                        };
                        items.push(v.clone());
                        Value::tuple(items)
                    })
                });
                LVal::Scalar(combined)
            }
            Expr::Proj(x, i) => match self.eval_lifted(x, lenv, ctx, inputs)? {
                LVal::Pair(a, b) => match i {
                    0 => *a,
                    1 => *b,
                    _ => return Err(IrError::Type("nested pair has two components".into())),
                },
                LVal::Scalar(s) => {
                    let i = *i;
                    LVal::Scalar(s.map(move |v| v.proj(i).expect("lifted projection")))
                }
                _ => return Err(IrError::Type("projection on an inner bag".into())),
            },
            Expr::Bin(op, a, b) => {
                // binaryScalarOp (Sec. 4.3): a tag join.
                let a = self.lifted_scalar(a, lenv, ctx, inputs)?;
                let b = self.lifted_scalar(b, lenv, ctx, inputs)?;
                let op = *op;
                LVal::Scalar(
                    a.zip_with(&b, move |x, y| apply_bin(op, x, y).expect("lifted scalar op")),
                )
            }
            Expr::Un(op, a) => {
                // unaryScalarOp (Sec. 4.3): a tagged map.
                let a = self.lifted_scalar(a, lenv, ctx, inputs)?;
                let op = *op;
                LVal::Scalar(a.map(move |x| apply_un(op, x).expect("lifted scalar op")))
            }
            Expr::Let(n, v, b) => {
                let rv = self.eval_lifted(v, lenv, ctx, inputs)?;
                let mut lenv2 = lenv.clone();
                lenv2.insert(n.clone(), rv);
                self.eval_lifted(b, &lenv2, ctx, inputs)?
            }
            Expr::If(c, t, el) => {
                // Lifted if over pure expressions: evaluate both branches
                // for all tags and select per tag (Sec. 6.2; selection is
                // equivalent to the join+filter routing because the language
                // is side-effect free).
                let c = self.lifted_scalar(c, lenv, ctx, inputs)?;
                let t = self.lifted_scalar(t, lenv, ctx, inputs)?;
                let el = self.lifted_scalar(el, lenv, ctx, inputs)?;
                let picked = c
                    .zip_with(&t, |c, t| Value::tuple(vec![c.clone(), t.clone()]))
                    .zip_with(&el, |ct, e| {
                        let c = ct.proj(0).expect("cond");
                        if c.as_bool().expect("boolean condition") {
                            ct.proj(1).expect("then")
                        } else {
                            e.clone()
                        }
                    });
                LVal::Scalar(picked)
            }
            Expr::Loop { init, cond, step, result } => {
                self.eval_lifted_loop(init, cond, step, result, lenv, ctx, inputs)?
            }
            Expr::Map(input, udf) => {
                let inp = self.eval_lifted(input, lenv, ctx, inputs)?;
                let (pure, lifted) = self.split_captures(&udf.body, &[&udf.param], lenv)?;
                if emits_pairs(&udf.body) {
                    self.lifted_map::<(Value, Value)>(inp, udf, pure, &lifted)?
                } else {
                    self.lifted_map::<Value>(inp, udf, pure, &lifted)?
                }
            }
            Expr::Filter(input, udf) => {
                let b = self.lifted_bag(input, lenv, ctx, inputs)?;
                let (pure, lifted) = self.split_captures(&udf.body, &[&udf.param], lenv)?;
                if lifted.is_empty() {
                    let f = self.compile_record(udf, b.is_keyed(), pure);
                    LVal::Bag(b.filter_records(move |r| {
                        f.eval_record(r, None).and_then(|v| v.as_bool()).expect("filter UDF")
                    }))
                } else {
                    let combined = combine_scalars(&lifted);
                    let f = self.compile_combined(udf, &lifted, b.is_keyed(), pure);
                    LVal::Bag(b.filter_records_with_scalar(&combined, move |r, c| {
                        f.eval_record(r, Some(c)).and_then(|v| v.as_bool()).expect("filter UDF")
                    }))
                }
            }
            Expr::FlatMapTuple(input, udf) => {
                let b = self.lifted_bag(input, lenv, ctx, inputs)?;
                let (pure, lifted) = self.split_captures(&udf.body, &[&udf.param], lenv)?;
                if !lifted.is_empty() {
                    return Err(IrError::Unsupported(
                        "flatMap with lifted closures is not supported in the IR dialect".into(),
                    ));
                }
                let f = self.compile_record(udf, b.is_keyed(), pure);
                LVal::Bag(LBag::Rows(b.flat_map_records(move |r| {
                    f.eval_record(r, None).expect("flatMap UDF").splat_tuple()
                })))
            }
            Expr::ReduceByKey(input, l2) => {
                // Lifted reduceByKey: composite (tag, key) re-keying
                // (Sec. 4.4) via the typed layer.
                let b = self.lifted_bag(input, lenv, ctx, inputs)?;
                let f = self.compile_udf2(l2);
                LVal::Bag(LBag::Keyed(b.pairs().reduce_by_key(move |a, b| {
                    f.eval2(a, b).expect("scalar aggregation UDF (validated at parse)")
                })))
            }
            Expr::Join(a, b) => {
                let left = self.eval_lifted(a, lenv, ctx, inputs)?;
                let right = self.eval_lifted(b, lenv, ctx, inputs)?;
                match (left, right) {
                    (LVal::Bag(l), LVal::Bag(r)) => {
                        LVal::Bag(LBag::Keyed(l.pairs().join(&r.pairs()).map(join_pair)))
                    }
                    // Half-lifted join (Sec. 5.2): InnerBag x driver bag.
                    (LVal::Bag(l), LVal::Driver(DVal::Bag(r))) => LVal::Bag(LBag::Keyed(
                        l.pairs().half_lifted_join(&r.pairs()).map(join_pair),
                    )),
                    _ => return Err(IrError::Unsupported(
                        "lifted join requires inner bags (left) and inner or driver bags (right)"
                            .into(),
                    )),
                }
            }
            Expr::Union(a, b) => {
                let a = self.lifted_bag(a, lenv, ctx, inputs)?;
                let b = self.lifted_bag(b, lenv, ctx, inputs)?;
                LVal::Bag(a.union(&b))
            }
            Expr::Distinct(x) => LVal::Bag(self.lifted_bag(x, lenv, ctx, inputs)?.distinct()),
            Expr::Count(x) => match self.eval_lifted(x, lenv, ctx, inputs)? {
                LVal::Bag(b) => {
                    let n = b.count();
                    LVal::Scalar(InnerScalar::from_repr(
                        n.repr().map(|(t, n)| (t.clone(), Value::Long(*n as i64))),
                        n.ctx().clone(),
                    ))
                }
                LVal::Driver(DVal::Bag(db)) => {
                    LVal::Scalar(ctx.constant(Value::Long(db.count()? as i64)))
                }
                _ => return Err(IrError::Type("count of a non-bag".into())),
            },
            Expr::Fold(x, zero, l2) => {
                let b = self.lifted_bag(x, lenv, ctx, inputs)?;
                // The zero is evaluated once (not per record), so its
                // capture set is not memoized.
                let zero = Arc::new(zero.as_ref().clone());
                let zero_names = crate::analyze::captures::capture_names(&zero, &[]);
                let (pure, lifted) = resolve_lifted_captures(&zero_names, lenv)?;
                if !lifted.is_empty() {
                    return Err(IrError::Unsupported("fold zero must not be lifted".into()));
                }
                let z = self.compile_udf(&zero, &[], None, pure).eval0()?;
                // Partial results per tag combine with the UDF itself, so
                // its second parameter is pair-bound only for the records.
                let f = self.compile_fold_step(l2, b.is_keyed());
                let g = if b.is_keyed() { self.compile_udf2(l2) } else { Arc::clone(&f) };
                LVal::Scalar(b.fold_records(
                    z,
                    move |a, r| {
                        f.eval_fold(a, r).expect("scalar aggregation UDF (validated at parse)")
                    },
                    move |a, b| g.eval2(a, b).expect("scalar aggregation UDF (validated at parse)"),
                ))
            }
            // Lifted materialization hint: cache the tagged representation
            // bag, so every consumer (and every loop iteration whose
            // environment carries this value) shares one evaluation.
            Expr::Cache(x) => match self.eval_lifted(x, lenv, ctx, inputs)? {
                LVal::Scalar(s) => {
                    LVal::Scalar(InnerScalar::from_repr(s.repr().cache(), s.ctx().clone()))
                }
                LVal::Bag(b) => LVal::Bag(b.cache()),
                LVal::Driver(DVal::Bag(db)) => LVal::Driver(DVal::Bag(db.cache())),
                other => other,
            },
            Expr::GroupByKey(_)
            | Expr::GroupByKeyIntoNestedBag(_)
            | Expr::MapWithLiftedUdf { .. } => {
                return Err(IrError::Unsupported(
                    "more than two levels of parallel operations in the IR dialect \
                     (the typed API in matryoshka-core supports deeper nesting)"
                        .into(),
                ))
            }
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_lifted_loop(
        &self,
        init: &[(String, Expr)],
        cond: &Expr,
        step: &[Expr],
        result: &Expr,
        lenv: &LEnv,
        ctx: &LiftingContext<Value>,
        inputs: &HashMap<String, Bag<Value>>,
    ) -> IrResult<LVal> {
        // Evaluate initializers and gather the loop state (Sec. 6.2: loop
        // variables become InnerScalars/InnerBags).
        let mut lenv2 = lenv.clone();
        let mut items = Vec::with_capacity(init.len());
        for (n, x) in init {
            let v = self.eval_lifted(x, &lenv2, ctx, inputs)?;
            let item = LStateItem::of(v, ctx).ok_or_else(|| {
                IrError::Unsupported("lifted loop variables must be scalars or inner bags".into())
            })?;
            lenv2.insert(n.clone(), item.to_lval());
            items.push(item);
        }
        let names: Vec<String> = init.iter().map(|(n, _)| n.clone()).collect();
        let bind = |state: &[LStateItem]| {
            let mut env = lenv.clone();
            for (n, item) in names.iter().zip(state) {
                env.insert(n.clone(), item.to_lval());
            }
            env
        };
        let state0 = LState(items);
        let final_state = lifted_while(
            &state0,
            |state: &LState| {
                let env = bind(&state.0);
                let mut next = Vec::with_capacity(step.len());
                for x in step {
                    let v = self.eval_lifted(x, &env, ctx, inputs).map_err(to_engine_err)?;
                    next.push(LStateItem::of(v, ctx).ok_or_else(|| {
                        to_engine_err(IrError::Unsupported(
                            "lifted loop step must produce scalars or inner bags".into(),
                        ))
                    })?);
                }
                // The condition is evaluated on the *new* variable values
                // (do-while semantics, Listing 4).
                let c =
                    self.lifted_scalar(cond, &bind(&next), ctx, inputs).map_err(to_engine_err)?;
                let cond_bool = InnerScalar::from_repr(
                    c.repr().map(|(t, v)| (t.clone(), v.as_bool().expect("loop condition"))),
                    c.ctx().clone(),
                );
                Ok((LState(next), cond_bool))
            },
            Some(10_000),
        )?;
        self.eval_lifted(result, &bind(&final_state.0), ctx, inputs)
    }

    fn lifted_scalar(
        &self,
        e: &Expr,
        lenv: &LEnv,
        ctx: &LiftingContext<Value>,
        inputs: &HashMap<String, Bag<Value>>,
    ) -> IrResult<InnerScalar<Value, Value>> {
        let v = self.eval_lifted(e, lenv, ctx, inputs)?;
        self.pair_to_scalar(v, ctx)
    }

    fn lifted_bag(
        &self,
        e: &Expr,
        lenv: &LEnv,
        ctx: &LiftingContext<Value>,
        inputs: &HashMap<String, Bag<Value>>,
    ) -> IrResult<LBag> {
        match self.eval_lifted(e, lenv, ctx, inputs)? {
            LVal::Bag(b) => Ok(b),
            _ => Err(IrError::Type("expected an inner bag".into())),
        }
    }
}
