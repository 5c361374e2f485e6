//! Text reporting helpers: aligned series tables and ASCII violin
//! summaries, so every figure's data prints in a form directly comparable
//! with the paper's plots.

use crate::error::BenchError;
use al_linalg::stats::{histogram, Summary};

/// Downsampling stride that keeps the emitted row count within `max_rows`:
/// ceiling division, so e.g. 150 points at `max_rows = 100` stride by 2
/// (75 rows) instead of flooring to stride 1 (all 150 rows).
fn stride_for(len: usize, max_rows: usize) -> usize {
    len.div_ceil(max_rows.max(1)).max(1)
}

/// Print a named numeric series as `index,value` CSV rows, downsampled to
/// at most `max_rows` evenly spaced points (figures have hundreds of
/// iterations; the trend is what matters), plus the final point, which
/// always prints even when it falls off the stride.
pub fn format_series(name: &str, values: &[f64], max_rows: usize) -> String {
    let mut out = format!("# series: {name} ({} points)\n", values.len());
    if values.is_empty() {
        return out;
    }
    let stride = stride_for(values.len(), max_rows);
    for (i, v) in values.iter().enumerate() {
        if i % stride == 0 || i == values.len() - 1 {
            out.push_str(&format!("{i},{v:.6}\n"));
        }
    }
    out
}

/// ASCII violin: a quantile summary plus a sideways histogram of the
/// distribution (log10 bins work well for cost data — pass transformed
/// values if desired).
pub fn format_violin(label: &str, values: &[f64], bins: usize) -> String {
    if values.is_empty() {
        return format!("{label}: (no data)\n");
    }
    let s = Summary::of(values);
    let mut out = format!(
        "{label}: n={} min={:.4} q1={:.4} median={:.4} mean={:.4} q3={:.4} max={:.4} IQR={:.4}\n",
        values.len(),
        s.min,
        s.q1,
        s.median,
        s.mean,
        s.q3,
        s.max,
        s.iqr()
    );
    let span = (s.max - s.min).max(1e-12);
    let counts = histogram(values, s.min, s.min + span, bins);
    let peak = *counts.iter().max().unwrap_or(&1) as f64;
    for (b, &c) in counts.iter().enumerate() {
        let lo = s.min + span * b as f64 / bins as f64;
        let width = ((c as f64 / peak) * 40.0).round() as usize;
        out.push_str(&format!("  {lo:>10.4} | {} {c}\n", "#".repeat(width)));
    }
    out
}

/// Align several labelled curves into one CSV block with a shared
/// iteration column: `iter,label1,label2,...`. Shorter curves print empty
/// cells once exhausted (RGMA stops early). Errors (instead of panicking —
/// this is library code under the panic-free, typed-error policy) when
/// the label and curve counts disagree.
pub fn format_curves(
    labels: &[&str],
    curves: &[Vec<f64>],
    max_rows: usize,
) -> Result<String, BenchError> {
    if labels.len() != curves.len() {
        return Err(BenchError::LabelCountMismatch {
            labels: labels.len(),
            curves: curves.len(),
        });
    }
    let n = curves.iter().map(|c| c.len()).max().unwrap_or(0);
    let mut out = String::from("iter");
    for l in labels {
        out.push(',');
        out.push_str(l);
    }
    out.push('\n');
    let stride = stride_for(n.max(1), max_rows);
    for i in 0..n {
        if i % stride != 0 && i != n - 1 {
            continue;
        }
        out.push_str(&i.to_string());
        for c in curves {
            out.push(',');
            if let Some(v) = c.get(i) {
                out.push_str(&format!("{v:.6}"));
            }
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_downsamples_and_keeps_last() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = format_series("x", &values, 10);
        assert!(s.starts_with("# series: x (100 points)"));
        let rows = s.lines().count() - 1;
        assert!(rows <= 12, "{rows} rows");
        assert!(s.contains("99,99"));
    }

    #[test]
    fn series_empty_is_header_only() {
        assert_eq!(format_series("e", &[], 5).lines().count(), 1);
    }

    #[test]
    fn series_respects_max_rows_at_boundary_lengths() {
        // The former floor-division stride emitted ALL 150 rows here
        // (150 / 100 == 1); ceiling division strides by 2.
        for (len, max_rows) in [
            (150usize, 100usize),
            (101, 100),
            (100, 100),
            (99, 100),
            (7, 3),
        ] {
            let values: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let s = format_series("b", &values, max_rows);
            let rows = s.lines().count() - 1;
            assert!(
                rows <= max_rows,
                "len={len} max_rows={max_rows}: emitted {rows} rows"
            );
            // The final point always survives downsampling.
            assert!(s
                .lines()
                .last()
                .unwrap()
                .starts_with(&format!("{}", len - 1)));
        }
    }

    #[test]
    fn violin_shows_quartiles_and_bars() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let v = format_violin("costs", &values, 5);
        assert!(v.contains("median=50.5"));
        assert!(v.contains('#'));
        assert_eq!(v.lines().count(), 6);
        assert!(format_violin("none", &[], 5).contains("no data"));
    }

    #[test]
    fn violin_counts_series_max_in_last_bin() {
        // Upper-edge pinning: the histogram's half-open bins clamp the
        // closed upper edge into the final bin, so the series max is
        // counted there — never dropped. Three values sit at the max;
        // the last bar must show all three.
        let values = [0.0, 0.1, 0.2, 1.0, 1.0, 1.0];
        let v = format_violin("edge", &values, 4);
        let bars: Vec<&str> = v.lines().skip(1).collect();
        assert_eq!(bars.len(), 4);
        assert!(bars[3].trim_end().ends_with("### 3"), "{v}");
        // Nothing dropped: bar counts sum to the series length.
        let total: usize = bars
            .iter()
            .map(|b| b.rsplit(' ').next().unwrap().parse::<usize>().unwrap())
            .sum();
        assert_eq!(total, values.len());
    }

    #[test]
    fn curves_handle_ragged_lengths() {
        let s = format_curves(&["a", "b"], &[vec![1.0, 2.0, 3.0], vec![10.0]], 10).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "iter,a,b");
        assert!(lines[1].starts_with("0,1.000000,10.000000"));
        assert!(lines.last().unwrap().starts_with("2,3.000000,"));
        assert!(lines.last().unwrap().ends_with(','));
    }

    #[test]
    fn curves_mismatched_labels_are_a_typed_error() {
        let err = format_curves(&["a"], &[vec![1.0], vec![2.0]], 10).unwrap_err();
        assert!(matches!(
            err,
            BenchError::LabelCountMismatch {
                labels: 1,
                curves: 2
            }
        ));
    }

    #[test]
    fn curves_respect_max_rows_at_boundary_lengths() {
        let long: Vec<f64> = (0..150).map(|i| i as f64).collect();
        let s = format_curves(&["a"], &[long], 100).unwrap();
        let rows = s.lines().count() - 1;
        assert!(rows <= 100, "emitted {rows} rows");
        assert!(s.lines().last().unwrap().starts_with("149,"));
    }
}
