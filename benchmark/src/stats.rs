//! Order statistics over latency samples and over rounds.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q)]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many samples lie strictly beyond the `q` percentile's rank. A
/// percentile is reported only with at least ten (choosing-metrics §1).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - 1 - rank(n, q)
}

/// Median: the mean of the two middle values for an even count, so the
/// median over an even number of rounds does not favour either side.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A metric over rounds: `value` is what is reported — the median over
/// rounds unless the caller says otherwise; min and max give `seabench
/// compare` the round range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverRounds {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

pub fn over_rounds(values: &[f64]) -> OverRounds {
    OverRounds {
        value: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Element-wise minimum of equally long sample lists: each statement's
/// fastest repetition over the rounds.
pub fn fastest_of<'a>(mut rounds: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut fastest = rounds.next().expect("at least one round").to_vec();
    for round in rounds {
        assert_eq!(round.len(), fastest.len(), "rounds issue the same list");
        for (f, v) in fastest.iter_mut().zip(round) {
            *f = f.min(*v);
        }
    }
    fastest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_needs_1100_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(1200, 0.99), 12);
        assert_eq!(samples_beyond(1100, 0.99), 11);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(200, 0.99), 2);
        assert_eq!(samples_beyond(1200, 0.50), 600);
    }

    #[test]
    fn median_over_rounds_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let r = over_rounds(&[5.0, 9.0, 7.0, 6.0, 8.0]);
        assert_eq!((r.value, r.min, r.max), (7.0, 5.0, 9.0));
    }

    #[test]
    fn fastest_repetition_is_taken_statement_by_statement() {
        let rounds = [
            vec![5.0, 2.0, 9.0],
            vec![4.0, 3.0, 9.5],
            vec![6.0, 2.5, 8.0],
        ];
        assert_eq!(
            fastest_of(rounds.iter().map(Vec::as_slice)),
            vec![4.0, 2.0, 8.0]
        );
    }
}
