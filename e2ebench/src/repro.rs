//! The `repro` side: the rendering commands, the journal steps, the
//! process runner, and the children's peak memory.

use std::path::Path;
use std::process::{Command, Stdio};

/// Environment variables that change how the program runs; children
/// get none of them, so every run is at the default settings.
pub const SETTINGS_ENV: [&str; 2] = ["UCORE_SWEEP_THREADS", "UCORE_FAULT_INJECT"];

/// Every rendering command `repro` accepts, as argument lists: 36
/// commands, each of which starts from an empty evaluation cache.
pub fn render_commands() -> Vec<Vec<String>> {
    let mut cmds: Vec<Vec<String>> = vec![vec!["--all".into()], vec!["--experiments".into()]];
    let mut add = |flag: &str, values: Vec<String>| {
        cmds.extend(values.into_iter().map(|v| vec![flag.to_string(), v]));
    };
    add("--table", (1..=6).map(|n| n.to_string()).collect());
    add("--figure", (2..=11).map(|n| n.to_string()).collect());
    add("--scenario", (1..=6).map(|n| n.to_string()).collect());
    add("--json", (6..=11).map(|n| format!("figure-{n}")).collect());
    add("--csv", (6..=11).map(|n| format!("figure-{n}")).collect());
    cmds
}

/// The projection figures the journal steps run.
pub const JOURNALED_FIGURES: [u32; 6] = [6, 7, 8, 9, 10, 11];

/// The arguments of a journal step: a write, or a resume of it.
pub fn durable_args(journal: &Path, figure: u32, resume: bool) -> Vec<String> {
    let mut args = vec!["--journal".to_string(), journal.display().to_string()];
    if resume {
        args.push("--resume".into());
    }
    args.extend(["--json".to_string(), format!("figure-{figure}")]);
    args
}

/// The digest key of a command: its rendering arguments, without the
/// journal flags (a journaled run must print what a plain one does).
pub fn digest_key(args: &[String]) -> String {
    let mut key = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--journal" | "--metrics" => {
                it.next();
            }
            "--resume" => {}
            _ => key.push(a.as_str()),
        }
    }
    key.join(" ")
}

/// Runs `repro` once and returns its stdout, or why it failed.
pub fn run(bin: &Path, args: &[String]) -> Result<Vec<u8>, String> {
    let mut cmd = Command::new(bin);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::null());
    for var in SETTINGS_ENV {
        cmd.env_remove(var);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    if out.status.success() {
        Ok(out.stdout)
    } else {
        Err(format!(
            "repro {} exited with {}",
            args.join(" "),
            out.status
        ))
    }
}

/// The largest peak resident set of any child this process has waited
/// for, in MB (`getrusage(RUSAGE_CHILDREN).ru_maxrss`).
pub fn children_peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (four i64), then
    // fourteen `long`s starting with `ru_maxrss` (in kB).
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage([0; 18]);
    // SAFETY: `usage` is a writable buffer of the size and alignment of
    // the C `struct rusage` on 64-bit Linux, and `getrusage` writes only
    // within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.0[4] as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_render_pass_has_every_command_once() {
        let cmds = render_commands();
        assert_eq!(cmds.len(), 36);
        let mut keys: Vec<String> = cmds.iter().map(|c| digest_key(c)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 36);
    }

    #[test]
    fn journal_flags_do_not_change_the_digest_key() {
        let j = Path::new("j.jsonl");
        assert_eq!(digest_key(&durable_args(j, 7, false)), "--json figure-7");
        assert_eq!(digest_key(&durable_args(j, 7, true)), "--json figure-7");
        let with_metrics: Vec<String> = ["--metrics", "m.txt", "--table", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(digest_key(&with_metrics), "--table 5");
    }
}
