//! Reference digests: the bytes every pass must reproduce.
//!
//! For the default seed the digests are pinned in `pinned.txt` beside
//! this crate, so a change that alters any output byte is caught even
//! though set-up recomputes the reference. For any other seed set-up's
//! reference pass supplies them. A pass whose digests differ fails and
//! contributes no timing.

use std::collections::BTreeMap;

/// The default workload seed (the paper study's root seed).
pub const DEFAULT_SEED: u64 = 2020;

const PINNED: &str = include_str!("../pinned.txt");

/// FNV-1a 64 over `text`, the digest every check compares.
pub fn digest(text: &str) -> u64 {
    consent_bundle::fnv64(text.as_bytes())
}

/// Named digests a workload's outputs must match.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Expect {
    digests: BTreeMap<String, u64>,
}

impl Expect {
    /// The digests pinned for `workload` at `scale`, when `seed` is the
    /// default seed; empty otherwise.
    pub fn pinned(workload: &str, scale: &str, seed: u64) -> Expect {
        if seed != DEFAULT_SEED {
            return Expect::default();
        }
        Expect::parse(PINNED, workload, scale)
    }

    /// Parse `workload scale check digest` lines; `#` starts a comment.
    pub fn parse(text: &str, workload: &str, scale: &str) -> Expect {
        let mut digests = BTreeMap::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            let fields: Vec<&str> = line.split_whitespace().collect();
            if let [w, s, check, hex] = fields[..] {
                if w == workload && s == scale {
                    let value = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                        .unwrap_or_else(|_| panic!("bad digest in pinned.txt: {line}"));
                    digests.insert(check.to_string(), value);
                }
            }
        }
        Expect { digests }
    }

    /// Set `check` to `value` unless a pinned digest already covers it.
    pub fn adopt(&mut self, check: &str, value: u64) {
        self.digests.entry(check.to_string()).or_insert(value);
    }

    /// Override one digest (tests use this to plant a wrong reference).
    pub fn set(&mut self, check: &str, value: u64) {
        self.digests.insert(check.to_string(), value);
    }

    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// Compare `text` against the digest named `check`; a mismatch or a
    /// missing reference is pushed onto `failures`.
    pub fn check(&self, check: &str, text: &str, failures: &mut Vec<String>) {
        let got = digest(text);
        match self.digests.get(check) {
            Some(&want) if want == got => {}
            Some(&want) => failures.push(format!(
                "{check}: digest {got:016x} differs from reference {want:016x}"
            )),
            None => failures.push(format!("{check}: no reference digest")),
        }
    }

    /// The digests as `pinned.txt` lines, for refreshing the pins.
    pub fn render(&self, workload: &str, scale: &str) -> String {
        self.digests
            .iter()
            .map(|(check, d)| format!("{workload} {scale} {check} {d:016x}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_filters_by_workload_and_scale() {
        let text = "# comment\nw paper a 00000000000000ff\nw smoke a 01\nv paper a 02\n";
        let e = Expect::parse(text, "w", "paper");
        let mut failures = Vec::new();
        e.check("a", "x", &mut failures);
        assert_eq!(failures.len(), 1, "digest of \"x\" is not 0xff");
        let mut ok = Expect::default();
        ok.adopt("a", digest("x"));
        ok.adopt("a", 0); // adopt never overrides
        let mut failures = Vec::new();
        ok.check("a", "x", &mut failures);
        assert!(failures.is_empty());
        ok.check("missing", "x", &mut failures);
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn pins_apply_only_to_the_default_seed() {
        assert!(Expect::pinned("feed_longitudinal", "paper", DEFAULT_SEED + 1).is_empty());
    }

    #[test]
    fn render_round_trips_through_parse() {
        let mut e = Expect::default();
        e.set("state", 0xdead_beef);
        e.set("manifest", 7);
        let text = e.render("w", "smoke");
        assert_eq!(Expect::parse(&text, "w", "smoke"), e);
    }
}
