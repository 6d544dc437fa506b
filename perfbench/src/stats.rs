//! Order statistics over latency samples.

/// The median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`, 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
}

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it. Returns `(value, percentile)`, the
/// percentile being the share of samples at or below the value, in
/// percent. With fewer than `TAIL_BEYOND + 1` samples no percentile
/// qualifies and the result is `None`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = n - 1 - TAIL_BEYOND;
    Some((sorted[index], 100.0 * (index + 1) as f64 / n as f64))
}

/// `items` cut into `parts` consecutive slices whose lengths differ by at
/// most one (fewer, none empty, when there are fewer items than parts).
pub fn chunks<T>(items: &[T], parts: usize) -> Vec<&[T]> {
    let parts = parts.clamp(1, items.len().max(1));
    (0..parts)
        .map(|k| &items[k * items.len() / parts..(k + 1) * items.len() / parts])
        .filter(|chunk| !chunk.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentile() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None, "ten samples leave none to report");
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (value, pct) = tail(&eleven).expect("eleven samples qualify");
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-9);
        // 1000 samples: the 990th value has exactly ten beyond it -> p99.
        let mut many: Vec<f64> = (1..=1000).map(f64::from).collect();
        many.reverse();
        let (value, pct) = tail(&many).expect("qualifies");
        assert_eq!(value, 990.0);
        assert_eq!(pct, 99.0);
        assert_eq!(many.iter().filter(|&&v| v > value).count(), TAIL_BEYOND);
    }

    #[test]
    fn chunks_are_even_and_cover_everything() {
        let items: Vec<u32> = (0..21).collect();
        let parts = chunks(&items, 5);
        let lens: Vec<usize> = parts.iter().map(|c| c.len()).collect();
        assert_eq!(lens, vec![4, 4, 4, 4, 5]);
        assert_eq!(parts.concat(), items);
        assert_eq!(chunks(&items[..3], 5).len(), 3);
        assert!(chunks::<u32>(&[], 5).is_empty());
    }
}
