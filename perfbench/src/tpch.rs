//! TPC-H read shapes shared by `tpch_serve` and `tpch_clean`: Q1- and
//! Q2-shaped plans with varying constants, and their closed-form answers.
//!
//! On tuple-independent data both shapes are hierarchical, so every answer
//! tuple's confidence (and the Boolean confidence) has a closed form built
//! from `1 − Π(1 − p)` alone.

use std::collections::BTreeMap;

use uprob_datagen::tpch::{
    customer_columns, dates, lineitem_columns, orders_columns, MARKET_SEGMENTS,
};
use uprob_urel::{Comparison, Expr, Plan, Predicate, ProbDb, Tuple, Value};

use crate::oracle::{any_of, tuple_probability, Expected};

/// Q1 with its constants: customers of one market segment, their orders
/// after a cut-off date, and those orders' lineitems; answers per order.
#[derive(Clone, Debug, PartialEq)]
pub struct Q1Shape {
    /// `c.mktsegment = segment`.
    pub segment: &'static str,
    /// `o.orderdate > after`.
    pub after: i64,
}

/// Q2 with its constants: a selection on `lineitem`; answers per order.
#[derive(Clone, Debug, PartialEq)]
pub struct Q2Shape {
    /// `shipdate between ship_from and ship_to`.
    pub ship_from: i64,
    /// See `ship_from`.
    pub ship_to: i64,
    /// `discount between discount_low and discount_high`.
    pub discount_low: f64,
    /// See `discount_low`.
    pub discount_high: f64,
    /// `quantity < quantity_below`.
    pub quantity_below: i64,
}

/// One read of the TPC-H workloads.
#[derive(Clone, Debug, PartialEq)]
pub enum Read {
    /// A Q1-shaped three-way join.
    Q1(Q1Shape),
    /// A Q2-shaped selection.
    Q2(Q2Shape),
}

fn int(tuple: &Tuple, column: usize) -> i64 {
    tuple
        .get(column)
        .and_then(Value::as_int)
        .expect("integer column")
}

fn float(tuple: &Tuple, column: usize) -> f64 {
    tuple
        .get(column)
        .and_then(Value::as_float)
        .expect("float column")
}

impl Q2Shape {
    fn holds(&self, tuple: &Tuple) -> bool {
        let shipdate = int(tuple, lineitem_columns::SHIPDATE);
        let discount = float(tuple, lineitem_columns::DISCOUNT);
        (self.ship_from..=self.ship_to).contains(&shipdate)
            && (self.discount_low..=self.discount_high).contains(&discount)
            && int(tuple, lineitem_columns::QUANTITY) < self.quantity_below
    }
}

/// Q1 constants: every market segment, cut-offs around 1995-03-15.
pub fn q1_grid() -> Vec<Read> {
    let mut grid = Vec::new();
    for segment in MARKET_SEGMENTS {
        for shift in [-120, 0, 120] {
            grid.push(Read::Q1(Q1Shape {
                segment,
                after: dates::DATE_1995_03_15 + shift,
            }));
        }
    }
    grid
}

/// Q2 constants around the paper's (1994–1996, 0.05–0.08, < 24).
pub fn q2_grid() -> Vec<Read> {
    let mut grid = Vec::new();
    for start in [0, 180, 360] {
        for width in [365, 545] {
            for discount_low in [0.02, 0.05] {
                for quantity_below in [16, 24, 32] {
                    let ship_from = dates::DATE_1994_01_01 + start;
                    grid.push(Read::Q2(Q2Shape {
                        ship_from,
                        ship_to: ship_from + width,
                        discount_low,
                        discount_high: discount_low + 0.03,
                        quantity_below,
                    }));
                }
            }
        }
    }
    grid
}

impl Read {
    /// The logical plan, in the unoptimized shape the SQL parses to (the
    /// optimizer pushes selections down and recognizes the joins).
    pub fn plan(&self) -> Plan {
        match self {
            Read::Q1(q) => Plan::scan("customer")
                .product(Plan::scan("orders"))
                .product(Plan::scan("lineitem"))
                .select(
                    Predicate::col_eq("mktsegment", q.segment)
                        .and(Predicate::cols_eq("custkey", "orders.custkey"))
                        .and(Predicate::cmp(
                            Expr::col("orderdate"),
                            Comparison::Gt,
                            Expr::val(q.after),
                        ))
                        .and(Predicate::cols_eq("orderkey", "lineitem.orderkey")),
                )
                .project(&["orderkey"])
                .rename("q1"),
            Read::Q2(q) => Plan::scan("lineitem")
                .select(
                    Predicate::between("shipdate", q.ship_from, q.ship_to)
                        .and(Predicate::between(
                            "discount",
                            q.discount_low,
                            q.discount_high,
                        ))
                        .and(Predicate::cmp(
                            Expr::col("quantity"),
                            Comparison::Lt,
                            Expr::val(q.quantity_below),
                        )),
                )
                .project(&["orderkey"])
                .rename("q2"),
        }
    }

    /// The closed-form answer on the tuple-independent database `db`,
    /// ignoring the `lineitem` rows whose positions are in `removed` (the
    /// violators of asserted row filters, which have probability 0 in the
    /// posterior). `customer` and `orders` must hold unique keys.
    pub fn expected(&self, db: &ProbDb, removed: &[bool]) -> (Expected, f64) {
        let table = db.world_table();
        let lineitem = db.relation("lineitem").expect("lineitem exists");
        let live = lineitem
            .iter()
            .enumerate()
            .filter(|(i, _)| !removed.get(*i).copied().unwrap_or(false))
            .map(|(_, row)| row);
        match self {
            Read::Q2(q) => {
                let mut groups: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
                for (tuple, d) in live {
                    if q.holds(tuple) {
                        groups
                            .entry(int(tuple, lineitem_columns::ORDERKEY))
                            .or_default()
                            .push(tuple_probability(d, table));
                    }
                }
                let boolean = any_of(groups.values().flatten().copied());
                let expected = groups
                    .into_iter()
                    .map(|(k, ps)| (Tuple::new(vec![Value::Int(k)]), any_of(ps)))
                    .collect();
                (expected, boolean)
            }
            Read::Q1(q) => {
                // lineitems per order, orders per qualifying customer.
                let mut lines: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
                for (tuple, d) in live {
                    lines
                        .entry(int(tuple, lineitem_columns::ORDERKEY))
                        .or_default()
                        .push(tuple_probability(d, table));
                }
                let mut customers: BTreeMap<i64, f64> = BTreeMap::new();
                for (tuple, d) in db.relation("customer").expect("customer exists").iter() {
                    let segment = tuple
                        .get(customer_columns::MKTSEGMENT)
                        .and_then(Value::as_str)
                        .expect("segment column");
                    if segment == q.segment {
                        customers.insert(
                            int(tuple, customer_columns::CUSTKEY),
                            tuple_probability(d, table),
                        );
                    }
                }
                let mut expected = Expected::new();
                // Per customer: the probabilities of its answer orders'
                // sub-trees, p_o · (1 − Π(1 − p_l)).
                let mut per_customer: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
                for (tuple, d) in db.relation("orders").expect("orders exist").iter() {
                    let custkey = int(tuple, orders_columns::CUSTKEY);
                    let (Some(p_c), true) = (
                        customers.get(&custkey),
                        int(tuple, orders_columns::ORDERDATE) > q.after,
                    ) else {
                        continue;
                    };
                    let orderkey = int(tuple, orders_columns::ORDERKEY);
                    let Some(ps) = lines.get(&orderkey) else {
                        continue;
                    };
                    let subtree = tuple_probability(d, table) * any_of(ps.iter().copied());
                    expected.insert(Tuple::new(vec![Value::Int(orderkey)]), p_c * subtree);
                    per_customer.entry(custkey).or_default().push(subtree);
                }
                let boolean = any_of(
                    per_customer
                        .iter()
                        .map(|(c, subtrees)| customers[c] * any_of(subtrees.iter().copied())),
                );
                (expected, boolean)
            }
        }
    }
}
