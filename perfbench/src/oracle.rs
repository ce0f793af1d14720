//! Output oracles. Every check returns `Err(reason)` on a violation;
//! the workloads count each violating op as failed.

use std::collections::BTreeMap;

use adapcc_simnet::cluster::Rank;

/// Per-rank tensors, as the library takes and returns them.
pub type Tensors = BTreeMap<Rank, Vec<f32>>;

/// The exact element-wise sum over `workers` (inputs are integer
/// valued, so f32 addition is exact in any order).
pub fn exact_sum(inputs: &Tensors, workers: &[Rank]) -> Vec<f32> {
    let len = inputs.values().next().map_or(0, Vec::len);
    let mut sum = vec![0.0f32; len];
    for w in workers {
        for (s, x) in sum.iter_mut().zip(&inputs[w]) {
            *s += *x;
        }
    }
    sum
}

/// The rank-ordered concatenation of every worker's input.
pub fn concatenation(inputs: &Tensors, workers: &[Rank]) -> Vec<f32> {
    workers
        .iter()
        .flat_map(|w| inputs[w].iter().copied())
        .collect()
}

fn expect_equal(what: &str, rank: Rank, got: Option<&[f32]>, want: &[f32]) -> Result<(), String> {
    let got = got.ok_or_else(|| format!("{what}: rank {} has no output", rank.0))?;
    if got.len() != want.len() {
        return Err(format!(
            "{what}: rank {} output has {} elements, expected {}",
            rank.0,
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: rank {} element {i} is {}, expected {}",
            rank.0, got[i], want[i]
        )),
    }
}

/// Every worker holds the full sum.
pub fn check_allreduce(sum: &[f32], outputs: &Tensors, workers: &[Rank]) -> Result<(), String> {
    for w in workers {
        expect_equal("allreduce", *w, outputs.get(w).map(Vec::as_slice), sum)?;
    }
    Ok(())
}

/// Worker `j` (in worker order) holds shard `j` of the sum.
pub fn check_reduce_scatter(
    sum: &[f32],
    outputs: &Tensors,
    workers: &[Rank],
) -> Result<(), String> {
    let shard = sum.len() / workers.len().max(1);
    for (j, w) in workers.iter().enumerate() {
        let want = &sum[j * shard..(j + 1) * shard];
        expect_equal(
            "reduce_scatter",
            *w,
            outputs.get(w).map(Vec::as_slice),
            want,
        )?;
    }
    Ok(())
}

/// Every worker holds the rank-ordered concatenation.
pub fn check_allgather(concat: &[f32], outputs: &Tensors, workers: &[Rank]) -> Result<(), String> {
    for w in workers {
        expect_equal("allgather", *w, outputs.get(w).map(Vec::as_slice), concat)?;
    }
    Ok(())
}

/// Every worker in these workloads is alive, so any declared fault is
/// a false one.
pub fn check_no_faults(faults: &[Rank]) -> Result<(), String> {
    if faults.is_empty() {
        Ok(())
    } else {
        let ranks: Vec<usize> = faults.iter().map(|r| r.0).collect();
        Err(format!("fault declared against live workers {ranks:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: usize, elems: usize) -> (Tensors, Vec<Rank>) {
        let workers: Vec<Rank> = (0..n).map(Rank).collect();
        let t = workers
            .iter()
            .map(|w| (*w, crate::common::int_input(9, 0, w.0, elems)))
            .collect();
        (t, workers)
    }

    #[test]
    fn allreduce_oracle_rejects_one_corrupted_element() {
        let (t, workers) = inputs(4, 32);
        let sum = exact_sum(&t, &workers);
        let mut out: Tensors = workers.iter().map(|w| (*w, sum.clone())).collect();
        assert!(check_allreduce(&sum, &out, &workers).is_ok());
        out.get_mut(&Rank(2)).expect("rank 2")[7] += 1.0;
        let err = check_allreduce(&sum, &out, &workers).expect_err("corruption must fail");
        assert!(err.contains("rank 2 element 7"), "{err}");
        out.remove(&Rank(3));
        assert!(check_allreduce(&sum, &out, &workers).is_err());
    }

    #[test]
    fn reduce_scatter_and_allgather_oracles_reject_corrupted_outputs() {
        let (t, workers) = inputs(4, 8);
        let sum = exact_sum(&t, &workers);
        let mut rs: Tensors = workers
            .iter()
            .enumerate()
            .map(|(j, w)| (*w, sum[j * 2..(j + 1) * 2].to_vec()))
            .collect();
        assert!(check_reduce_scatter(&sum, &rs, &workers).is_ok());
        rs.get_mut(&Rank(0)).expect("rank 0")[1] -= 1.0;
        assert!(check_reduce_scatter(&sum, &rs, &workers).is_err());
        let cat = concatenation(&t, &workers);
        let mut ag: Tensors = workers.iter().map(|w| (*w, cat.clone())).collect();
        assert!(check_allgather(&cat, &ag, &workers).is_ok());
        ag.get_mut(&Rank(1)).expect("rank 1").truncate(3);
        assert!(check_allgather(&cat, &ag, &workers).is_err());
    }

    #[test]
    fn any_declared_fault_is_a_violation() {
        assert!(check_no_faults(&[]).is_ok());
        assert!(check_no_faults(&[Rank(5)]).is_err());
    }
}
