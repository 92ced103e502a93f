//! The statistics every reported number goes through.

/// Ops per block: throughput, CPU and allocation figures are taken per
/// block and the median block is reported, so a stall every k <= 8 ops
/// shows in every block while a burst of neighbour noise spoils few.
pub const BLOCK_OPS: usize = 8;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (0..=1) with linear interpolation between order
/// statistics; 0 for an empty sample, so a metric that does not apply to
/// a workload reads 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Differences over whole blocks of `block` ops that start every
/// `stride` ops: `stride == block` gives consecutive blocks, `stride == 1`
/// every run of `block` consecutive ops.
///
/// `marks[i]` is a cumulative reading (wall clock, CPU clock, allocation
/// count) taken *before* op `i`, plus one final reading after the last
/// op. A trailing partial block is dropped, unless no block completed at
/// all (a smoke run), in which case the partial block is scaled up to a
/// whole one.
pub fn block_deltas(marks: &[f64], block: usize, stride: usize) -> Vec<f64> {
    let ops = marks.len().saturating_sub(1);
    if ops == 0 {
        return Vec::new();
    }
    if ops < block {
        return vec![(marks[ops] - marks[0]) * block as f64 / ops as f64];
    }
    (0..=ops - block)
        .step_by(stride)
        .map(|start| marks[start + block] - marks[start])
        .collect()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method) — the rule the acceptance driver
/// applies to ten runs. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn block_deltas_drop_the_partial_tail() {
        // 19 ops at 1 s each, op 10 stalls for 5 s more.
        let mut marks = vec![0.0];
        for i in 0..19 {
            let last = *marks.last().unwrap();
            marks.push(last + if i == 10 { 6.0 } else { 1.0 });
        }
        let blocks = block_deltas(&marks, 8, 8);
        assert_eq!(blocks, vec![8.0, 13.0]);
        // Every run of 8 ops: 12 of them, the 8 that hold op 10 stalled.
        let runs = block_deltas(&marks, 8, 1);
        assert_eq!(runs.len(), 12);
        assert_eq!(runs.iter().filter(|&&d| d == 13.0).count(), 8);
        assert_eq!(runs[..3], [8.0, 8.0, 8.0]);
        assert_eq!(runs[11], 8.0);
    }

    #[test]
    fn a_run_shorter_than_one_block_is_scaled_up() {
        for stride in [1, 8] {
            assert_eq!(block_deltas(&[0.0, 1.0, 2.0, 3.0], 8, stride), vec![8.0]);
            assert!(block_deltas(&[5.0], 8, stride).is_empty());
            assert!(block_deltas(&[], 8, stride).is_empty());
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), Some((2.5, 5.5)));
        assert_eq!(quartiles(&[3.0]), None);
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
    }
}
