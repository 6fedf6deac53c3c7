//! The BRAINS command shell.
//!
//! The paper: "one can generate the BIST circuit using the GUI or command
//! shell". This is the command-shell front end; each line is a command,
//! the return value is the text the shell prints.
//!
//! ```text
//! brains> add_memory ram0 words=8192 width=16 ports=sp group=0
//! brains> set_algorithm march_c-
//! brains> set_policy per_group
//! brains> compile
//! brains> report
//! ```

use crate::brains::{BistDesign, Brains, MemorySpec, SequencerPolicy};
use crate::march::MarchAlgorithm;
use crate::memory::{PortKind, SramConfig};
use crate::BistError;

/// Interactive BRAINS session state.
#[derive(Debug, Clone, Default)]
pub struct Shell {
    brains: Brains,
    design: Option<BistDesign>,
}

impl Shell {
    /// Fresh session.
    #[must_use]
    pub fn new() -> Self {
        Shell {
            brains: Brains::new(),
            design: None,
        }
    }

    /// The compiler state (for embedding the shell in STEAC).
    #[must_use]
    pub fn brains(&self) -> &Brains {
        &self.brains
    }

    /// The last compiled design, if any.
    #[must_use]
    pub fn design(&self) -> Option<&BistDesign> {
        self.design.as_ref()
    }

    /// Executes one command line, returning the shell output.
    ///
    /// # Errors
    ///
    /// Returns [`BistError::Shell`] for unknown/malformed commands and
    /// propagates compiler errors.
    pub fn exec(&mut self, line: &str) -> Result<String, BistError> {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Ok(String::new());
        };
        let args: Vec<&str> = parts.collect();
        let bad = |reason: &str| BistError::Shell {
            line: line.to_string(),
            reason: reason.to_string(),
        };
        match cmd {
            "help" => Ok("commands: add_memory <name> words=N width=N ports=sp|2p \
                 [group=N] | set_algorithm <name>|{notation} | \
                 set_algorithm_for <mem> <name> | set_policy \
                 per_memory|per_group|single | set_parallel on|off | list | \
                 compile | report | coverage [n]"
                .to_string()),
            "add_memory" => {
                let name = args.first().ok_or_else(|| bad("memory name missing"))?;
                let positive = |v: &str, what: &str| {
                    let n = v.parse::<usize>().ok().filter(|&n| n > 0);
                    n.ok_or_else(|| bad(&format!("{what} must be a positive integer")))
                };
                let mut words = None;
                let mut width = None;
                let mut ports = PortKind::SinglePort;
                let mut group = 0usize;
                for kv in &args[1..] {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| bad("expected key=value"))?;
                    match k {
                        "words" => words = Some(positive(v, "words")?),
                        "width" => width = Some(positive(v, "width")?),
                        "ports" => {
                            ports = match v {
                                "sp" => PortKind::SinglePort,
                                "2p" => PortKind::TwoPort,
                                _ => return Err(bad("ports must be sp or 2p")),
                            }
                        }
                        "group" => group = v.parse().map_err(|_| bad("bad group"))?,
                        _ => return Err(bad("unknown key")),
                    }
                }
                let words = words.ok_or_else(|| bad("words= missing"))?;
                let width = width.ok_or_else(|| bad("width= missing"))?;
                let config = SramConfig {
                    words,
                    width,
                    ports,
                };
                self.brains.add_memory(MemorySpec::new(name, config, group));
                Ok(format!("added {name}: {config}"))
            }
            "set_algorithm" => {
                let rest = args.join(" ");
                let alg = if rest.starts_with('{') {
                    MarchAlgorithm::parse("custom", &rest)?
                } else {
                    MarchAlgorithm::by_name(rest.trim()).ok_or(BistError::Unknown {
                        what: "algorithm",
                        name: rest.trim().to_string(),
                    })?
                };
                let msg = format!("algorithm = {alg}");
                self.brains.algorithm(alg);
                Ok(msg)
            }
            "set_algorithm_for" => {
                let mem = args.first().ok_or_else(|| bad("memory name missing"))?;
                let name = args.get(1).ok_or_else(|| bad("algorithm missing"))?;
                let alg = MarchAlgorithm::by_name(name).ok_or(BistError::Unknown {
                    what: "algorithm",
                    name: (*name).to_string(),
                })?;
                self.brains.algorithm_for(mem, alg);
                Ok(format!("{mem} uses {name}"))
            }
            "set_policy" => {
                let p = match *args.first().ok_or_else(|| bad("policy missing"))? {
                    "per_memory" => SequencerPolicy::PerMemory,
                    "per_group" => SequencerPolicy::PerGroup,
                    "single" => SequencerPolicy::Single,
                    _ => return Err(bad("policy must be per_memory|per_group|single")),
                };
                self.brains.policy(p);
                Ok(format!("policy = {p:?}"))
            }
            "set_parallel" => {
                let on = match *args.first().ok_or_else(|| bad("on|off missing"))? {
                    "on" => true,
                    "off" => false,
                    _ => return Err(bad("expected on or off")),
                };
                self.brains.parallel(on);
                Ok(format!("parallel = {on}"))
            }
            "list" => {
                let mut out = String::new();
                for m in self.brains.memories() {
                    out.push_str(&format!("{}: {} group {}\n", m.name, m.config, m.group));
                }
                Ok(out)
            }
            "compile" => {
                let d = self.brains.compile()?;
                let msg = format!(
                    "compiled: {} sequencer(s), {:.0} GE, {} cycles",
                    d.sequencer_count(),
                    d.total_area_ge(),
                    d.total_cycles()
                );
                self.design = Some(d);
                Ok(msg)
            }
            "report" => match &self.design {
                Some(d) => Ok(d.to_string()),
                None => Err(bad("nothing compiled yet")),
            },
            "coverage" => {
                let n: usize = args
                    .first()
                    .map(|s| s.parse().map_err(|_| bad("bad sample count")))
                    .transpose()?
                    .unwrap_or(20);
                let reports = self
                    .brains
                    .evaluate_coverage(&steac_sim::Exec::from_env(), n, 2005)
                    .map_err(|e| bad(&format!("coverage dispatch failed: {e}")))?;
                let mut out = String::new();
                for r in reports {
                    out.push_str(&r.to_string());
                    out.push('\n');
                }
                Ok(out)
            }
            _ => Err(bad("unknown command (try `help`)")),
        }
    }

    /// Executes a script (one command per line, `#` comments allowed),
    /// returning concatenated output.
    ///
    /// # Errors
    ///
    /// Stops at the first failing command.
    pub fn exec_script(&mut self, script: &str) -> Result<String, BistError> {
        let mut out = String::new();
        for line in script.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            out.push_str(&self.exec(line)?);
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_session() {
        let mut sh = Shell::new();
        let out = sh
            .exec_script(
                "# DSC-style session
                 add_memory ram0 words=8192 width=16 ports=sp group=0
                 add_memory ram1 words=8192 width=16 ports=sp group=0
                 add_memory fifo words=256 width=32 ports=2p group=1
                 set_algorithm march_c-
                 set_policy per_group
                 compile
                 report",
            )
            .expect("script runs");
        assert!(out.contains("compiled: 2 sequencer(s)"), "{out}");
        assert!(out.contains("ram0"), "{out}");
        assert!(sh.design().is_some());
    }

    #[test]
    fn custom_notation_accepted() {
        let mut sh = Shell::new();
        let out = sh
            .exec("set_algorithm {any(w0); up(r0,w1); down(r1)}")
            .unwrap();
        assert!(out.contains("custom"), "{out}");
    }

    #[test]
    fn unknown_command_is_an_error() {
        let mut sh = Shell::new();
        assert!(matches!(
            sh.exec("frobnicate"),
            Err(BistError::Shell { .. })
        ));
    }

    #[test]
    fn report_before_compile_is_an_error() {
        let mut sh = Shell::new();
        assert!(sh.exec("report").is_err());
    }

    #[test]
    fn coverage_command_runs() {
        let mut sh = Shell::new();
        sh.exec("add_memory m words=64 width=4 ports=sp").unwrap();
        let out = sh.exec("coverage 5").unwrap();
        assert!(out.contains("March C-"), "{out}");
        assert!(out.contains("100.00%"), "{out}");
    }

    /// A memory needs a word and a bit: zero counts are shell errors,
    /// and a one-word memory grades its cell faults (on a helper thread,
    /// so a coverage run that never returns fails the receive timeout).
    #[test]
    fn degenerate_geometries_are_rejected_or_graded() {
        let mut sh = Shell::new();
        for line in [
            "add_memory r words=0 width=8 ports=sp group=0",
            "add_memory r words=8 width=0 ports=sp group=0",
        ] {
            assert!(
                matches!(sh.exec(line), Err(BistError::Shell { .. })),
                "{line}"
            );
        }
        assert!(sh.brains().memories().is_empty());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut sh = Shell::new();
            sh.exec("add_memory r words=1 width=8 ports=sp group=0")
                .unwrap();
            let _ = tx.send(sh.exec("coverage 1"));
        });
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("one-word coverage never returned")
            .unwrap();
        assert!(out.contains("on 1x8 SP: 2/2 detected (100.00%)"), "{out}");
    }

    #[test]
    fn bad_arguments_are_reported() {
        let mut sh = Shell::new();
        assert!(sh.exec("add_memory m words=abc width=8").is_err());
        assert!(sh.exec("add_memory m width=8").is_err());
        assert!(sh.exec("set_policy diagonal").is_err());
        assert!(sh.exec("set_algorithm no_such_march").is_err());
    }
}
