//! What a run owns outside its own memory — a shared-memory prefix, a
//! temporary directory, child processes — and the check that none of it
//! is left behind.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SHM_DIR: &str = "/dev/shm";

/// Children spawned and reaped, shared with every child handle.
#[derive(Debug, Default)]
pub struct Children {
    spawned: AtomicUsize,
    reaped: AtomicUsize,
}

impl Children {
    pub fn spawned(&self) {
        self.spawned.fetch_add(1, Ordering::SeqCst);
    }

    pub fn reaped(&self) {
        self.reaped.fetch_add(1, Ordering::SeqCst);
    }

    fn unreaped(&self) -> usize {
        self.spawned.load(Ordering::SeqCst) - self.reaped.load(Ordering::SeqCst)
    }
}

#[derive(Debug)]
pub struct Hygiene {
    prefix: String,
    dir: PathBuf,
    children: Arc<Children>,
}

/// Where runs keep their temporary directories: inside the benchmark's
/// own (git-ignored) results directory, so nothing is written outside the
/// checkout. Shared-memory segments are the exception the product forces:
/// `shm_open` names live in `/dev/shm`.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn shm_entries(prefix: &str) -> Vec<PathBuf> {
    std::fs::read_dir(SHM_DIR)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .map(|e| e.path())
                .collect()
        })
        .unwrap_or_default()
}

impl Hygiene {
    /// Claim a prefix and a directory no other run has, and sweep both.
    pub fn begin(workload: &str) -> Result<Hygiene, String> {
        let nonce = crate::trace::wall_ns() % 1_000_000;
        // The closing letter keeps one run's prefix from being the start of
        // another's.
        let prefix = format!("ldg{}x{nonce}z", std::process::id());
        let dir = results_dir()
            .join("tmp")
            .join(format!("{workload}-{prefix}"));
        let me = Hygiene {
            prefix,
            dir,
            children: Arc::default(),
        };
        me.sweep();
        std::fs::create_dir_all(&me.dir).map_err(|e| format!("create {:?}: {e}", me.dir))?;
        Ok(me)
    }

    /// The shared-memory prefix of this run; a workload that needs several
    /// namespaces appends letters or digits.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn children(&self) -> &Arc<Children> {
        &self.children
    }

    /// Remove every segment under this run's prefix, and its directory.
    /// Segments of other prefixes are not ours to touch.
    fn sweep(&self) {
        for path in shm_entries(&self.prefix) {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }

    /// Sweep, then fail if anything this run owned is still there.
    pub fn end(self) -> Result<(), String> {
        self.sweep();
        let mut left: Vec<String> = shm_entries(&self.prefix)
            .iter()
            .map(|p| p.display().to_string())
            .collect();
        if self.dir.exists() {
            left.push(self.dir.display().to_string());
        }
        match self.children.unreaped() {
            0 => {}
            n => left.push(format!("{n} unreaped child process(es)")),
        }
        if left.is_empty() {
            Ok(())
        } else {
            Err(format!("left behind: {}", left.join(", ")))
        }
    }
}

impl Drop for Hygiene {
    /// A run that unwinds still takes its segments and files with it.
    fn drop(&mut self) {
        self.sweep();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_sweeps_its_own_prefix_and_no_other() {
        let h = Hygiene::begin("selftest").unwrap();
        let mine = Path::new(SHM_DIR).join(format!("{}_leaf0_meta", h.prefix()));
        let foreign = Path::new(SHM_DIR).join(format!("x{}_leaf0_meta", h.prefix()));
        std::fs::write(&mine, b"x").unwrap();
        std::fs::write(&foreign, b"x").unwrap();
        std::fs::write(h.dir().join("f"), b"x").unwrap();
        let dir = h.dir().to_owned();
        h.children().spawned();
        h.children().reaped();
        h.end().unwrap();
        assert!(!mine.exists() && !dir.exists());
        assert!(foreign.exists());
        std::fs::remove_file(foreign).unwrap();
    }

    #[test]
    fn an_unreaped_child_fails_the_run() {
        let h = Hygiene::begin("selftest").unwrap();
        h.children().spawned();
        assert!(h.end().unwrap_err().contains("unreaped"));
    }
}
