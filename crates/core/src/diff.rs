//! The Diff phase: position-wise comparison of N tokenized outputs after
//! noise masking and known-variance exclusion.
//!
//! The comparison runs in place over whatever holds the segments — the
//! engine's per-instance [`crate::SegmentTable`]s, or owned [`Segment`]s via
//! [`diff_segments`] — and decides masked equality with
//! [`crate::SegmentMask::eq_masked`], so an exchange that agrees builds no
//! canonical copy of anything. Only a *diverged* exchange materialises what
//! describes it: each detail's label and masked excerpts, and the
//! per-instance [`DiffOutcome::canonical_forms`] majority voting groups by.

use crate::frame::{label_string, SegmentList};
use crate::report::excerpt;
use crate::{DivergenceDetail, DivergenceReport, NoiseMask, Segment, VarianceRules};

/// The result of diffing: the report, plus what majority voting needs to
/// group the instances of a diverged exchange.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// The divergence report.
    pub report: DivergenceReport,
    /// For each instance of a **diverged** exchange, the canonical byte form
    /// of its diffable output (used by the majority-vote policy to group
    /// agreeing instances). Empty when the report is unanimous.
    pub canonical_forms: Vec<Vec<u8>>,
    instances: usize,
}

impl DiffOutcome {
    /// Groups instances by identical canonical form, largest group first.
    /// A unanimous outcome is one group of every instance.
    pub fn agreement_groups(&self) -> Vec<Vec<usize>> {
        if !self.report.diverged() {
            return vec![(0..self.instances).collect()];
        }
        let mut groups: Vec<(&[u8], Vec<usize>)> = Vec::new();
        for (idx, form) in self.canonical_forms.iter().enumerate() {
            match groups.iter_mut().find(|(f, _)| f == form) {
                Some((_, members)) => members.push(idx),
                None => groups.push((form, vec![idx])),
            }
        }
        groups.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.1[0].cmp(&b.1[0])));
        groups.into_iter().map(|(_, members)| members).collect()
    }
}

/// Diffs the tokenized output of N instances.
///
/// `segments[i]` is instance *i*'s segment list for the frame being compared.
/// `mask` carries the filter pair's noise ranges; `rules` the operator's
/// known-variance exclusions. Instance 0 serves as the reference: with
/// unanimity required, "all equal" is equivalent to "all equal to the first".
///
/// # Panics
///
/// Panics if `segments` is empty.
pub fn diff_segments(
    segments: &[Vec<Segment>],
    mask: &NoiseMask,
    rules: &VarianceRules,
) -> DiffOutcome {
    diff_lists(segments, mask, rules)
}

/// [`diff_segments`] over any segment storage.
pub(crate) fn diff_lists<L: SegmentList>(
    lists: &[L],
    mask: &NoiseMask,
    rules: &VarianceRules,
) -> DiffOutcome {
    assert!(!lists.is_empty(), "diff requires at least one instance");
    let mut report = DivergenceReport {
        noise_masked: mask.len(),
        ..DivergenceReport::default()
    };
    let reference = &lists[0];
    let excluded = |list: &L, pos: usize| {
        !rules.is_empty() && rules.covers(list.label(pos), list.payload(pos))
    };
    // With no rules nothing is excluded and nothing needs remembering.
    let reference_excluded: Vec<bool> = if rules.is_empty() {
        Vec::new()
    } else {
        (0..reference.len())
            .map(|pos| excluded(reference, pos))
            .collect()
    };
    report.variance_excluded = reference_excluded.iter().filter(|e| **e).count();

    for (inst, list) in lists.iter().enumerate().skip(1) {
        let compared = reference.len().min(list.len());
        // Exclusions count over every segment, compared or surplus.
        let scanned = if rules.is_empty() {
            compared
        } else {
            list.len()
        };
        for pos in 0..scanned {
            if excluded(list, pos) {
                report.variance_excluded += 1;
                continue;
            }
            if pos >= compared || reference_excluded.get(pos) == Some(&true) {
                continue;
            }
            let (ref_p, inst_p) = (reference.payload(pos), list.payload(pos));
            let equal = match mask.mask_for(pos) {
                Some(m) => m.eq_masked(ref_p, inst_p),
                None => ref_p == inst_p,
            };
            if !equal {
                report.details.push(DivergenceDetail {
                    segment_index: pos,
                    label: label_string(list.label(pos)),
                    instance: inst,
                    reference_excerpt: excerpt(&mask.apply(pos, ref_p)),
                    instance_excerpt: excerpt(&mask.apply(pos, inst_p)),
                });
            }
        }
        // Structural mismatch: differing diffable segment counts, unless the
        // surplus positions are wholly masked.
        if reference.len() != list.len() {
            let longer = reference.len().max(list.len());
            let surplus_masked =
                (compared..longer).all(|pos| mask.mask_for(pos).is_some_and(|m| m.whole));
            if !surplus_masked {
                report.structural.push(inst);
            }
        }
    }

    let canonical_forms = if report.diverged() {
        lists
            .iter()
            .map(|list| {
                let mut flat = Vec::new();
                for pos in 0..list.len() {
                    if !excluded(list, pos) {
                        flat.extend_from_slice(&mask.apply(pos, list.payload(pos)));
                        flat.push(0x1e); // record separator
                    }
                }
                flat
            })
            .collect()
    } else {
        Vec::new()
    };

    DiffOutcome {
        report,
        canonical_forms,
        instances: lists.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarianceRule;

    fn lines(ls: &[&str]) -> Vec<Segment> {
        ls.iter()
            .map(|l| Segment::new("line", l.as_bytes().to_vec()))
            .collect()
    }

    #[test]
    fn unanimous_outputs_do_not_diverge() {
        let s = vec![lines(&["a", "b"]), lines(&["a", "b"]), lines(&["a", "b"])];
        let out = diff_segments(&s, &NoiseMask::none(), &VarianceRules::new());
        assert!(!out.report.diverged());
        assert_eq!(out.agreement_groups(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn content_difference_diverges() {
        let s = vec![lines(&["a", "b"]), lines(&["a", "LEAK"])];
        let out = diff_segments(&s, &NoiseMask::none(), &VarianceRules::new());
        assert!(out.report.diverged());
        assert_eq!(out.report.details.len(), 1);
        assert_eq!(out.report.details[0].segment_index, 1);
        assert_eq!(out.report.details[0].instance, 1);
    }

    #[test]
    fn extra_segments_are_structural_divergence() {
        let s = vec![lines(&["a"]), lines(&["a", "EXTRA ROW"])];
        let out = diff_segments(&s, &NoiseMask::none(), &VarianceRules::new());
        assert!(out.report.diverged());
        assert_eq!(out.report.structural, vec![1]);
    }

    #[test]
    fn masked_noise_does_not_diverge() {
        let pair_a = lines(&["sid=AAAA ok"]);
        let pair_b = lines(&["sid=BBBB ok"]);
        let mask = NoiseMask::from_filter_pair(&pair_a, &pair_b);
        let s = vec![pair_a.clone(), pair_b.clone(), lines(&["sid=CCCC ok"])];
        let out = diff_segments(&s, &mask, &VarianceRules::new());
        assert!(!out.report.diverged(), "{}", out.report);
        assert_eq!(out.report.noise_masked, 1);
    }

    #[test]
    fn divergence_outside_masked_range_is_still_caught() {
        let pair_a = lines(&["sid=AAAA ok"]);
        let pair_b = lines(&["sid=BBBB ok"]);
        let mask = NoiseMask::from_filter_pair(&pair_a, &pair_b);
        let s = vec![pair_a, pair_b, lines(&["sid=CCCC PWNED"])];
        let out = diff_segments(&s, &mask, &VarianceRules::new());
        assert!(out.report.diverged());
        assert_eq!(out.report.implicated_instances(), vec![2]);
    }

    #[test]
    fn variance_rule_excludes_version_banner() {
        let mut rules = VarianceRules::new();
        rules.push(VarianceRule::any_label("Server: nginx/*").unwrap());
        let s = vec![
            lines(&["Server: nginx/1.13.2", "body"]),
            lines(&["Server: nginx/1.13.4", "body"]),
        ];
        let out = diff_segments(&s, &NoiseMask::none(), &rules);
        assert!(!out.report.diverged());
        assert_eq!(out.report.variance_excluded, 2);
    }

    #[test]
    fn majority_grouping_orders_largest_first() {
        let s = vec![lines(&["x"]), lines(&["y"]), lines(&["x"])];
        let out = diff_segments(&s, &NoiseMask::none(), &VarianceRules::new());
        let groups = out.agreement_groups();
        assert_eq!(groups[0], vec![0, 2]);
        assert_eq!(groups[1], vec![1]);
    }

    #[test]
    fn wholly_masked_surplus_is_not_structural() {
        // Filter pair itself had different segment counts => whole-masked tail.
        let pair_a = lines(&["a", "noise1"]);
        let pair_b = lines(&["a"]);
        let mask = NoiseMask::from_filter_pair(&pair_a, &pair_b);
        let s = vec![pair_a, pair_b];
        let out = diff_segments(&s, &mask, &VarianceRules::new());
        assert!(!out.report.diverged(), "{}", out.report);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_input_panics() {
        diff_segments(&[], &NoiseMask::none(), &VarianceRules::new());
    }

    #[test]
    fn unanimous_outcome_builds_no_forms_and_groups_everyone() {
        let pair_a = lines(&["a", "noise1"]);
        let pair_b = lines(&["a"]);
        let mask = NoiseMask::from_filter_pair(&pair_a, &pair_b);
        let out = diff_segments(&[pair_a, pair_b], &mask, &VarianceRules::new());
        assert!(out.canonical_forms.is_empty());
        assert_eq!(out.agreement_groups(), vec![vec![0, 1]]);
    }

    #[test]
    fn exclusions_count_surplus_segments_and_skip_their_positions() {
        let mut rules = VarianceRules::new();
        rules.push(VarianceRule::any_label("skip*").unwrap());
        // Position 0: excluded on the reference only, so never compared.
        // Position 2: surplus on instance 1 and excluded there.
        let s = vec![lines(&["skip-a", "b"]), lines(&["other", "b", "skip-c"])];
        let out = diff_segments(&s, &NoiseMask::none(), &rules);
        assert_eq!(out.report.variance_excluded, 2);
        assert!(out.report.details.is_empty());
        assert_eq!(out.report.structural, vec![1]);
        assert_eq!(
            out.canonical_forms,
            vec![b"b\x1e".to_vec(), b"other\x1eb\x1e".to_vec()]
        );
    }
}
