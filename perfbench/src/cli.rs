//! The closed-loop CLI workloads: one client runs `simc verify <spec>`
//! processes back to back, and a `simc batch` pass reads the Table 1
//! quality columns from the program's own JSON summary.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use simc_obs::json::{self, Value};

use crate::procfs::HwmSampler;
use crate::specs::{Base, Spec};

/// One finished `simc verify` process.
pub struct Run {
    /// Spawn to exit.
    pub wall: Duration,
    /// Highest `VmHWM` seen while it ran, in kB.
    pub hwm_kb: u64,
    /// `None` when the answer was right, else why it was wrong.
    pub error: Option<String>,
}

/// Runs `simc verify <path>` and checks its answer against `base`: exit
/// 0, a `hazard-free` verdict, and the expected number of inserted state
/// signals.
pub fn verify(simc: &Path, path: &Path, base: &Base) -> Run {
    let start = Instant::now();
    let child = Command::new(simc)
        .arg("verify")
        .arg(path)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn();
    let child = match child {
        Ok(child) => child,
        Err(e) => {
            return Run {
                wall: start.elapsed(),
                hwm_kb: 0,
                error: Some(format!("{}: spawn failed: {e}", base.name)),
            }
        }
    };
    let sampler = HwmSampler::start(child.id());
    let output = child.wait_with_output();
    let wall = start.elapsed();
    let hwm_kb = sampler.finish();
    let error = match output {
        Err(e) => Some(format!("{}: wait failed: {e}", base.name)),
        Ok(out) => check_verify_output(
            base,
            out.status.code(),
            &String::from_utf8_lossy(&out.stdout),
            &String::from_utf8_lossy(&out.stderr),
        ),
    };
    Run {
        wall,
        hwm_kb,
        error,
    }
}

fn check_verify_output(
    base: &Base,
    code: Option<i32>,
    stdout: &str,
    stderr: &str,
) -> Option<String> {
    if code != Some(0) {
        return Some(format!(
            "{}: exit code {code:?}: {}",
            base.name,
            stderr.trim()
        ));
    }
    if !stdout.starts_with("hazard-free") {
        return Some(format!("{}: verdict `{}`", base.name, stdout.trim()));
    }
    let added = stderr
        .lines()
        .find_map(|l| {
            l.strip_prefix("note: inserted ")?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0u64);
    (added != base.added).then(|| {
        format!(
            "{}: inserted {added} state signal(s), expected {}",
            base.name, base.added
        )
    })
}

/// Writes every spec of every round to `dir` and returns their paths,
/// round by round.
pub fn write_specs(
    dir: &Path,
    bases: &[Base],
    rounds: &[Vec<Spec>],
) -> std::io::Result<Vec<Vec<PathBuf>>> {
    std::fs::create_dir_all(dir)?;
    rounds
        .iter()
        .enumerate()
        .map(|(r, round)| {
            round
                .iter()
                .map(|spec| {
                    let path = dir.join(format!("{}.{r}.g", bases[spec.base].name));
                    std::fs::write(&path, &spec.text)?;
                    Ok(path)
                })
                .collect()
        })
        .collect()
}

/// Totals of the Table 1 quality columns over one round.
pub struct Quality {
    /// Sum of `literals` over the round's jobs.
    pub literals: u64,
    /// Sum of `added_signals`.
    pub state_signals: u64,
}

/// Runs `simc batch` over one round of spec files and checks every job's
/// verdict, inserted signals and literals against its base spec. Returns
/// the totals and one message per mismatch.
pub fn batch_quality(
    simc: &Path,
    dir: &Path,
    bases: &[Base],
    round: &[Spec],
    paths: &[PathBuf],
) -> (Quality, Vec<String>) {
    let mut quality = Quality {
        literals: 0,
        state_signals: 0,
    };
    let mut errors = Vec::new();
    let manifest = dir.join("manifest.txt");
    let listing: String = paths.iter().map(|p| format!("{}\n", p.display())).collect();
    if let Err(e) = std::fs::write(&manifest, listing) {
        errors.push(format!("batch: writing manifest: {e}"));
        return (quality, errors);
    }
    let output = Command::new(simc)
        .args(["batch"])
        .arg(&manifest)
        .args(["--threads", "2"])
        .stdin(Stdio::null())
        .output();
    let doc = match output {
        Ok(out) if out.status.success() => json::parse(&String::from_utf8_lossy(&out.stdout)).ok(),
        Ok(out) => {
            errors.push(format!(
                "batch: exit {:?}: {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr).trim()
            ));
            return (quality, errors);
        }
        Err(e) => {
            errors.push(format!("batch: spawn failed: {e}"));
            return (quality, errors);
        }
    };
    let jobs = doc
        .as_ref()
        .and_then(|d| d.get("jobs"))
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    if jobs.len() != round.len() {
        errors.push(format!(
            "batch: {} job(s) reported for {} spec(s)",
            jobs.len(),
            round.len()
        ));
        return (quality, errors);
    }
    for (job, spec) in jobs.iter().zip(round) {
        let base = &bases[spec.base];
        let field = |name: &str| job.get(name).and_then(Value::as_u64);
        let verified = job.get("verified").and_then(Value::as_bool) == Some(true);
        let (added, literals) = (field("added_signals"), field("literals"));
        if !verified || added != Some(base.added) || literals != Some(base.literals) {
            errors.push(format!(
                "{}: batch verified={verified} added={added:?} literals={literals:?}, expected added={} literals={}",
                base.name, base.added, base.literals
            ));
        }
        quality.literals += literals.unwrap_or(0);
        quality.state_signals += added.unwrap_or(0);
    }
    (quality, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(added: u64) -> Base {
        Base {
            name: "b".into(),
            text: String::new(),
            added,
            literals: 0,
        }
    }

    #[test]
    fn verify_output_checks_exit_verdict_and_insertions() {
        let ok = "hazard-free (17 composed states explored)\n";
        let note = "note: inserted 2 state signal(s) to satisfy MC\n";
        assert_eq!(check_verify_output(&base(2), Some(0), ok, note), None);
        assert_eq!(check_verify_output(&base(0), Some(0), ok, ""), None);
        assert!(check_verify_output(&base(1), Some(0), ok, note).is_some());
        assert!(check_verify_output(&base(2), Some(1), ok, note).is_some());
        assert!(check_verify_output(
            &base(2),
            Some(0),
            "HAZARDOUS (3 composed states explored)\n",
            note
        )
        .is_some());
    }
}
