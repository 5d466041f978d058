//! Order statistics of a metric's samples.

use crate::api::Json;

/// Median, quartiles and extremes of the samples of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `samples` (at least one).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&v);
        Summary {
            median,
            min: v[0],
            q1,
            q3,
            max: v[v.len() - 1],
            n: v.len(),
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj(vec![
            ("median", Json::Num(self.median)),
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("max", Json::Num(self.max)),
            ("n", Json::Num(self.n as f64)),
            ("unit", Json::Str(unit.into())),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Summary> {
        let f = |k: &str| v.get(k).and_then(Json::as_f64);
        Some(Summary {
            median: f("median")?,
            min: f("min")?,
            q1: f("q1")?,
            q3: f("q3")?,
            max: f("max")?,
            n: v.get("n")?.as_usize()?,
        })
    }
}

/// Median of `samples` (0 for none, so that absent metrics read as 0).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        Summary::of(samples).median
    }
}

/// The three quartile cut points of sorted data, by the method of Python's
/// `statistics.quantiles(data, n=4)` (exclusive), which the acceptance
/// procedure uses; with fewer than two samples all three are the sample.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let ld = sorted.len();
    if ld < 2 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = Summary::of(&[2.5]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (2.5, 2.5, 2.5, 0.0));
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[0.25, 0.5, 1.0, 4.0]);
        let back = Summary::from_json(&Json::parse(&s.to_json("s").to_json()).unwrap());
        assert_eq!(back, Some(s));
    }
}
