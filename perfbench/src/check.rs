//! Bit-for-bit comparisons used by the property checks.

use uprob_query::AnswerConfidences;
use uprob_urel::ProbDb;

/// True if two answers carry the same tuples in the same order with
/// bit-identical per-tuple and Boolean confidences.
pub fn answers_identical(a: &AnswerConfidences, b: &AnswerConfidences) -> bool {
    a.boolean.to_bits() == b.boolean.to_bits()
        && a.tuples.len() == b.tuples.len()
        && a.tuples
            .iter()
            .zip(&b.tuples)
            .all(|((ta, pa), (tb, pb))| ta == tb && pa.to_bits() == pb.to_bits())
}

/// True if two databases hold the same relations with the same rows in
/// the same order, and world tables whose variables agree in name, domain
/// and the bits of every probability.
pub fn databases_identical(a: &ProbDb, b: &ProbDb) -> bool {
    if a.relation_names() != b.relation_names() {
        return false;
    }
    let relations_equal = a
        .relations()
        .zip(b.relations())
        .all(|(ra, rb)| ra.schema().name() == rb.schema().name() && ra.rows() == rb.rows());
    let (ta, tb) = (a.world_table(), b.world_table());
    relations_equal
        && ta.num_variables() == tb.num_variables()
        && ta.iter().zip(tb.iter()).all(|((va, ia), (vb, ib))| {
            va == vb
                && ia.name == ib.name
                && ia.values == ib.values
                && ia.probabilities.len() == ib.probabilities.len()
                && ia
                    .probabilities
                    .iter()
                    .zip(&ib.probabilities)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// True if `got` lies within a relative `tolerance` of `want` (absolute
/// below 1e-300, where relative error loses meaning).
pub fn close(got: f64, want: f64, tolerance: f64) -> bool {
    let scale = want.abs().max(1e-300);
    (got - want).abs() <= tolerance * scale
}
