//! Independent oracles. None of them calls the program's decomposition:
//! they use closed forms that hold on tuple-independent data, world
//! enumeration, or plain Monte Carlo over whole worlds.

use std::collections::BTreeMap;

use uprob_urel::Tuple;
use uprob_wsd::{VarId, WorldTable, WsDescriptor, WsSet};

use crate::rng::Rng;

/// `1 − Π(1 − pᵢ)`: the probability that at least one of independent
/// events happens (the hierarchical `∃` of a safe query).
pub fn any_of(ps: impl IntoIterator<Item = f64>) -> f64 {
    1.0 - ps.into_iter().map(|p| 1.0 - p).product::<f64>()
}

/// The marginal probability of a one-variable descriptor (a tuple of a
/// tuple-independent relation).
///
/// # Panics
///
/// If the descriptor does not have exactly one assignment.
pub fn tuple_probability(descriptor: &WsDescriptor, table: &WorldTable) -> f64 {
    let mut assignments = descriptor.iter();
    let (Some(a), None) = (assignments.next(), assignments.next()) else {
        panic!("a tuple-independent row has a one-variable descriptor");
    };
    table
        .probability(a.var, a.value)
        .expect("descriptor variables exist in the table")
}

/// Expected `conf()` answer: tuple → probability, in tuple order.
pub type Expected = BTreeMap<Tuple, f64>;

/// Compares a served answer (`(tuple, p)` pairs) against an expected map
/// within a relative tolerance. Returns a description of the first
/// disagreement.
pub fn compare(
    got: &[(Tuple, f64)],
    boolean: f64,
    want: &Expected,
    want_boolean: f64,
    tolerance: f64,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} answer tuples, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (tuple, p) in got {
        match want.get(tuple) {
            Some(q) if crate::check::close(*p, *q, tolerance) => {}
            Some(q) => return Err(format!("tuple {tuple:?}: {p} vs closed form {q}")),
            None => return Err(format!("unexpected answer tuple {tuple:?}")),
        }
    }
    if !crate::check::close(boolean, want_boolean, tolerance) {
        return Err(format!(
            "Boolean confidence {boolean} vs closed form {want_boolean}"
        ));
    }
    Ok(())
}

/// The probability of `set` by enumerating every world of the variables it
/// mentions, or `None` if there are more than `max_worlds` of them.
pub fn enumerate(set: &WsSet, table: &WorldTable, max_worlds: u64) -> Option<f64> {
    let vars: Vec<VarId> = set.variables().into_iter().collect();
    let sizes: Vec<usize> = vars
        .iter()
        .map(|v| table.domain_size(*v).expect("known variable"))
        .collect();
    let mut worlds = 1u64;
    for s in &sizes {
        worlds = worlds.checked_mul(*s as u64)?;
        if worlds > max_worlds {
            return None;
        }
    }
    let position: BTreeMap<VarId, usize> = vars.iter().enumerate().map(|(i, v)| (*v, i)).collect();
    let descriptors: Vec<Vec<(usize, u16)>> = set
        .iter()
        .map(|d| d.iter().map(|a| (position[&a.var], a.value.0)).collect())
        .collect();
    let probs: Vec<Vec<f64>> = vars
        .iter()
        .map(|v| {
            table
                .variable(*v)
                .expect("known variable")
                .probabilities
                .clone()
        })
        .collect();
    let mut world = vec![0u16; vars.len()];
    let mut total = 0.0;
    loop {
        if descriptors
            .iter()
            .any(|d| d.iter().all(|(i, value)| world[*i] == *value))
        {
            total += world
                .iter()
                .enumerate()
                .map(|(i, value)| probs[i][*value as usize])
                .product::<f64>();
        }
        // Odometer step.
        let mut i = 0;
        loop {
            if i == world.len() {
                return Some(total);
            }
            world[i] += 1;
            if (world[i] as usize) < sizes[i] {
                break;
            }
            world[i] = 0;
            i += 1;
        }
    }
}

/// A Monte Carlo band `[low, high]` for the probability of `set`: `samples`
/// whole worlds drawn from a seeded generator, six standard errors wide
/// (plus one sample's worth, so a band is never empty).
pub fn monte_carlo_band(set: &WsSet, table: &WorldTable, samples: u32, seed: u64) -> (f64, f64) {
    let vars: Vec<VarId> = set.variables().into_iter().collect();
    let position: BTreeMap<VarId, usize> = vars.iter().enumerate().map(|(i, v)| (*v, i)).collect();
    let descriptors: Vec<Vec<(usize, u16)>> = set
        .iter()
        .map(|d| d.iter().map(|a| (position[&a.var], a.value.0)).collect())
        .collect();
    // Cumulative distributions for inverse-transform sampling.
    let cumulative: Vec<Vec<f64>> = vars
        .iter()
        .map(|v| {
            let mut acc = 0.0;
            table
                .variable(*v)
                .expect("known variable")
                .probabilities
                .iter()
                .map(|p| {
                    acc += p;
                    acc
                })
                .collect()
        })
        .collect();
    let mut rng = Rng::new(seed, "monte-carlo-band");
    let mut world = vec![0u16; vars.len()];
    let mut hits = 0u32;
    for _ in 0..samples {
        for (slot, cdf) in world.iter_mut().zip(&cumulative) {
            let u = rng.unit();
            let last = cdf.len() - 1;
            *slot = cdf.iter().position(|c| u < *c).unwrap_or(last) as u16;
        }
        if descriptors
            .iter()
            .any(|d| d.iter().all(|(i, value)| world[*i] == *value))
        {
            hits += 1;
        }
    }
    let n = f64::from(samples);
    let p = f64::from(hits) / n;
    let half = 6.0 * (p * (1.0 - p) / n).max(1.0 / (n * n)).sqrt() + 1.0 / n;
    (p - half, p + half)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_and_the_band_agree_with_a_closed_form() {
        let mut table = WorldTable::new();
        let x = table.add_boolean("x", 0.3).unwrap();
        let y = table.add_boolean("y", 0.6).unwrap();
        let mut set = WsSet::empty();
        set.push(WsDescriptor::from_pairs(&table, &[(x, 1)]).unwrap());
        set.push(WsDescriptor::from_pairs(&table, &[(y, 1)]).unwrap());
        let want = any_of([0.3, 0.6]);
        let got = enumerate(&set, &table, 16).unwrap();
        assert!((got - want).abs() < 1e-12);
        let (low, high) = monte_carlo_band(&set, &table, 20_000, 1);
        assert!(low <= want && want <= high, "{low} {high}");
        assert!(enumerate(&set, &table, 3).is_none());
    }
}
