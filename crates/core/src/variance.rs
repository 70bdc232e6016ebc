use crate::{GlobPattern, Result, Segment};

/// One known-variance rule (§IV-B4): segments whose label matches
/// `label_glob` and whose payload matches `payload_glob` are excluded from
/// divergence detection.
///
/// The paper supports this "through RDDR's configuration file", e.g. to
/// ignore differing `server_version` strings when Postgres 10.7 and 10.9 are
/// deployed together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarianceRule {
    label_glob: GlobPattern,
    payload_glob: GlobPattern,
}

impl VarianceRule {
    /// Creates a rule from two glob patterns.
    ///
    /// # Errors
    ///
    /// Returns [`crate::RddrError::InvalidConfig`] if either pattern is empty.
    pub fn new(label_glob: &str, payload_glob: &str) -> Result<Self> {
        Ok(Self {
            label_glob: GlobPattern::new(label_glob)?,
            payload_glob: GlobPattern::new(payload_glob)?,
        })
    }

    /// Shorthand for a rule that applies to every segment label.
    ///
    /// # Errors
    ///
    /// Returns [`crate::RddrError::InvalidConfig`] if the pattern is empty.
    pub fn any_label(payload_glob: &str) -> Result<Self> {
        Self::new("*", payload_glob)
    }

    /// Whether `segment` is covered by this rule.
    pub fn matches(&self, segment: &Segment) -> bool {
        self.covers(segment.label.as_bytes(), &segment.payload)
    }

    fn covers(&self, label: &[u8], payload: &[u8]) -> bool {
        self.label_glob.matches(label) && self.payload_glob.matches(payload)
    }
}

/// An ordered collection of known-variance rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarianceRules {
    rules: Vec<VarianceRule>,
}

impl VarianceRules {
    /// Creates an empty rule set (the default: everything is compared).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule.
    pub fn push(&mut self, rule: VarianceRule) {
        self.rules.push(rule);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set contains no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates over the rules.
    pub fn iter(&self) -> std::slice::Iter<'_, VarianceRule> {
        self.rules.iter()
    }

    /// Whether any rule excludes `segment` from diffing.
    pub fn excludes(&self, segment: &Segment) -> bool {
        self.covers(segment.label.as_bytes(), &segment.payload)
    }

    /// [`VarianceRules::excludes`] for a segment given as its two parts.
    pub(crate) fn covers(&self, label: &[u8], payload: &[u8]) -> bool {
        self.rules.iter().any(|r| r.covers(label, payload))
    }
}

impl FromIterator<VarianceRule> for VarianceRules {
    fn from_iter<T: IntoIterator<Item = VarianceRule>>(iter: T) -> Self {
        Self {
            rules: iter.into_iter().collect(),
        }
    }
}

impl Extend<VarianceRule> for VarianceRules {
    fn extend<T: IntoIterator<Item = VarianceRule>>(&mut self, iter: T) {
        self.rules.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(label: &str, payload: &str) -> Segment {
        Segment::new(label, payload.as_bytes().to_vec())
    }

    #[test]
    fn rule_matches_label_and_payload() {
        let r = VarianceRule::new("pg:ParameterStatus", "server_version*").unwrap();
        assert!(r.matches(&seg("pg:ParameterStatus", "server_version 10.7")));
        assert!(!r.matches(&seg("pg:DataRow", "server_version 10.7")));
        assert!(!r.matches(&seg("pg:ParameterStatus", "TimeZone UTC")));
    }

    #[test]
    fn any_label_rule() {
        let r = VarianceRule::any_label("*nginx/1.13.*").unwrap();
        assert!(r.matches(&seg("line", "Server: nginx/1.13.2")));
        assert!(r.matches(&seg("header", "Server: nginx/1.13.4")));
    }

    #[test]
    fn empty_set_excludes_nothing() {
        let rules = VarianceRules::new();
        assert!(!rules.excludes(&seg("line", "anything")));
        assert!(rules.is_empty());
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut rules: VarianceRules = [VarianceRule::any_label("a*").unwrap()]
            .into_iter()
            .collect();
        rules.extend([VarianceRule::any_label("b*").unwrap()]);
        assert_eq!(rules.len(), 2);
        assert!(rules.excludes(&seg("x", "alpha")));
        assert!(rules.excludes(&seg("x", "beta")));
        assert!(!rules.excludes(&seg("x", "gamma")));
    }
}
