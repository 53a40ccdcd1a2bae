//! The one crash-consistent file writer behind every piece of durable
//! state: the campaign spec copy, manifest, checkpoints and summary, and
//! the service's job table.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Replace `path` with `bytes` so that a crash at any point leaves either
/// the old file or the new one, never a torn one.
///
/// Writes `<name>.tmp` next to the target, fsyncs it, renames it over the
/// target, then fsyncs the parent directory so the rename itself is
/// durable. A stale `<name>.tmp` left by a killed writer is truncated and
/// reused; no loader reads it.
pub fn durable_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    #[allow(clippy::disallowed_methods)] // the one sanctioned rename
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_contents_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("dgflow-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        durable_write(&path, b"first, and longer").unwrap();
        durable_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["state.json"], "no .tmp left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_from_a_killed_writer_does_not_block() {
        let dir = std::env::temp_dir().join(format!("dgflow-durable-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.ck");
        durable_write(&path, b"old").unwrap();
        std::fs::write(dir.join("checkpoint.ck.tmp"), b"torn garbage, much longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"old", "target untouched");
        durable_write(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!dir.join("checkpoint.ck.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
