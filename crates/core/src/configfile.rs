//! RDDR's configuration-file format.
//!
//! The paper configures known variance "through RDDR's configuration file"
//! (§IV-B4) and selects protocol modules per deployment (§IV-B1). This
//! module parses a minimal INI-flavoured format into an
//! [`EngineConfig`](crate::EngineConfig) plus the protocol-module name:
//!
//! ```text
//! # one protected microservice
//! instances = 3
//! filter_pair = 0 1
//! protocol = postgres
//! policy = block            # or: majority
//! response_deadline_ms = 5000
//! throttle_budget = 0       # omit to disable signature throttling
//!
//! [variance]
//! # label-glob <whitespace> payload-glob
//! pg:ParameterStatus server_version*
//! http:header:server *
//! ```

use std::time::Duration;

use crate::{EngineConfig, RddrError, ResponsePolicy, Result, VarianceRule, VarianceRules};

/// A parsed configuration file.
///
/// # Examples
///
/// ```
/// use rddr_core::ConfigFile;
///
/// # fn main() -> Result<(), rddr_core::RddrError> {
/// let cfg = ConfigFile::parse(
///     "instances = 3\nfilter_pair = 0 1\nprotocol = http\n\n[variance]\nhttp:header:server *",
/// )?;
/// assert_eq!(cfg.engine.instances(), 3);
/// assert_eq!(cfg.protocol, "http");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConfigFile {
    /// The validated engine configuration.
    pub engine: EngineConfig,
    /// The protocol-module name (`"http"`, `"postgres"`, `"json"`,
    /// `"line"`, `"raw"`). The proxy crate resolves it to a factory.
    pub protocol: String,
}

impl ConfigFile {
    /// Parses the configuration text.
    ///
    /// # Errors
    ///
    /// Returns [`RddrError::InvalidConfig`] on unknown keys, malformed
    /// values, or an engine configuration that fails validation.
    pub fn parse(text: &str) -> Result<ConfigFile> {
        let mut instances: Option<usize> = None;
        let mut filter_pair: Option<(usize, usize)> = None;
        let mut protocol = "raw".to_string();
        let mut policy = ResponsePolicy::Block;
        let mut deadline: Option<Duration> = None;
        let mut throttle: Option<u32> = None;
        let mut variance = VarianceRules::new();
        let mut in_variance = false;

        for (lineno, raw_line) in text.lines().enumerate() {
            let line = strip_comment(raw_line).trim();
            if line.is_empty() {
                continue;
            }
            if line.eq_ignore_ascii_case("[variance]") {
                in_variance = true;
                continue;
            }
            if line.starts_with('[') {
                return Err(RddrError::InvalidConfig(format!(
                    "unknown section {line:?} on line {}",
                    lineno + 1
                )));
            }
            if in_variance {
                let (label, payload) = line.split_once(char::is_whitespace).ok_or_else(|| {
                    RddrError::InvalidConfig(format!(
                        "variance rule needs `label-glob payload-glob` on line {}",
                        lineno + 1
                    ))
                })?;
                variance.push(VarianceRule::new(label.trim(), payload.trim())?);
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                RddrError::InvalidConfig(format!("expected `key = value` on line {}", lineno + 1))
            })?;
            let key = key.trim().to_ascii_lowercase();
            let value = value.trim();
            match key.as_str() {
                "instances" => {
                    instances = Some(parse_num(&key, value)?);
                }
                "filter_pair" => {
                    let mut parts = value.split_whitespace();
                    let a = parse_num(&key, parts.next().unwrap_or(""))?;
                    let b = parse_num(&key, parts.next().unwrap_or(""))?;
                    filter_pair = Some((a, b));
                }
                "protocol" => protocol = value.to_ascii_lowercase(),
                "policy" => {
                    policy = match value.to_ascii_lowercase().as_str() {
                        "block" => ResponsePolicy::Block,
                        "majority" | "majority_vote" => ResponsePolicy::MajorityVote,
                        other => {
                            return Err(RddrError::InvalidConfig(format!(
                                "unknown policy {other:?}"
                            )))
                        }
                    };
                }
                "response_deadline_ms" => {
                    deadline = Some(Duration::from_millis(parse_num(&key, value)? as u64));
                }
                "throttle_budget" => {
                    throttle = Some(parse_num(&key, value)? as u32);
                }
                other => {
                    return Err(RddrError::InvalidConfig(format!(
                        "unknown key {other:?} on line {}",
                        lineno + 1
                    )))
                }
            }
        }

        let instances = instances
            .ok_or_else(|| RddrError::InvalidConfig("missing required key `instances`".into()))?;
        let mut builder = EngineConfig::builder(instances)
            .policy(policy)
            .variance(variance);
        if let Some((a, b)) = filter_pair {
            builder = builder.filter_pair(a, b);
        }
        if let Some(d) = deadline {
            builder = builder.response_deadline(d);
        }
        if let Some(budget) = throttle {
            builder = builder.throttle(budget);
        }
        Ok(ConfigFile {
            engine: builder.build()?,
            protocol,
        })
    }
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_num(key: &str, value: &str) -> Result<usize> {
    value
        .parse()
        .map_err(|_| RddrError::InvalidConfig(format!("{key}: bad number {value:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "
        # The GitLab Postgres deployment of Figure 3
        instances = 3
        filter_pair = 0 1
        protocol = postgres
        policy = block
        response_deadline_ms = 5000
        throttle_budget = 2

        [variance]
        pg:ParameterStatus server_version*
        http:header:server *
    ";

    #[test]
    fn full_config_parses() {
        let cfg = ConfigFile::parse(FULL).unwrap();
        assert_eq!(cfg.engine.instances(), 3);
        assert_eq!(cfg.engine.filter_pair(), Some((0, 1)));
        assert_eq!(cfg.protocol, "postgres");
        assert_eq!(cfg.engine.policy(), ResponsePolicy::Block);
        assert_eq!(cfg.engine.response_deadline(), Duration::from_millis(5000));
        assert_eq!(cfg.engine.throttle_budget(), Some(2));
        assert_eq!(cfg.engine.variance().len(), 2);
    }

    #[test]
    fn minimal_config_defaults() {
        let cfg = ConfigFile::parse("instances = 2").unwrap();
        assert_eq!(cfg.engine.instances(), 2);
        assert_eq!(cfg.engine.filter_pair(), None);
        assert_eq!(cfg.protocol, "raw");
        assert_eq!(cfg.engine.throttle_budget(), None);
    }

    #[test]
    fn majority_policy_parses() {
        let cfg = ConfigFile::parse("instances = 3\npolicy = majority").unwrap();
        assert_eq!(cfg.engine.policy(), ResponsePolicy::MajorityVote);
    }

    #[test]
    fn missing_instances_is_rejected() {
        assert!(ConfigFile::parse("protocol = http").is_err());
    }

    #[test]
    fn unknown_key_is_rejected() {
        assert!(ConfigFile::parse("instances = 2\nturbo = yes").is_err());
    }

    #[test]
    fn invalid_engine_config_surfaces() {
        // filter pair out of range fails EngineConfig validation.
        assert!(ConfigFile::parse("instances = 2\nfilter_pair = 0 5").is_err());
    }

    #[test]
    fn malformed_variance_rule_is_rejected() {
        assert!(ConfigFile::parse("instances = 2\n[variance]\njustonefield").is_err());
    }

    #[test]
    fn a_storage_section_is_an_unknown_section() {
        let err = ConfigFile::parse("instances = 3\n[storage]\ndefault = paged:replay-forward")
            .unwrap_err();
        assert!(
            matches!(&err, RddrError::InvalidConfig(why) if why == "unknown section \"[storage]\" on line 2"),
            "{err:?}"
        );
    }

    #[test]
    fn variance_rules_apply() {
        let cfg = ConfigFile::parse("instances = 2\n[variance]\nline sid=*").unwrap();
        let seg = crate::Segment::new("line", b"sid=abc".to_vec());
        assert!(cfg.engine.variance().excludes(&seg));
    }
}
