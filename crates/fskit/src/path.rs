//! Minimal absolute-path handling.
//!
//! Paths in this stack are always absolute, `/`-separated, and contain no
//! `.`/`..` components once normalized. Keeping our own helpers (rather than
//! `std::path`) keeps semantics identical across platforms and matches the
//! URL pathnames stored in DATALINK columns. The helpers borrow from the
//! path they are given: resolving a path copies none of it.

use crate::error::{FsError, FsResult};

/// Refuses a relative path or one with a `.` or `..` component.
fn check(path: &str) -> FsResult<()> {
    if !path.starts_with('/') {
        return Err(FsError::InvalidArgument(format!("path not absolute: {path}")));
    }
    if path.split('/').any(|comp| comp == "." || comp == "..") {
        return Err(FsError::InvalidArgument(format!("path not normalized: {path}")));
    }
    Ok(())
}

/// The components of a normalized absolute path, borrowed from it.
///
/// Returns an error for relative paths or paths containing `.` or `..`
/// components; empty components (repeated or trailing separators) are
/// skipped. The root path `/` yields no component.
pub fn components(path: &str) -> FsResult<impl Iterator<Item = &str>> {
    check(path)?;
    Ok(path.split('/').filter(|comp| !comp.is_empty()))
}

/// Splits a path into (parent directory path, final component), both
/// borrowed from it.
///
/// `/a/b/c` becomes `("/a/b", "c")`. The parent keeps the path's own
/// separators (`//a///b` gives `//a`), so it has the components of the
/// normalized parent. The root has no parent and is rejected.
pub fn split_parent(path: &str) -> FsResult<(&str, &str)> {
    check(path)?;
    let trimmed = path.trim_end_matches('/');
    let Some(at) = trimmed.rfind('/') else {
        return Err(FsError::InvalidArgument("root has no parent".into()));
    };
    let parent = trimmed[..at].trim_end_matches('/');
    Ok((if parent.is_empty() { "/" } else { parent }, &trimmed[at + 1..]))
}

/// Joins a directory path and a child name.
pub fn join(dir: &str, name: &str) -> String {
    if dir == "/" {
        format!("/{name}")
    } else {
        format!("{dir}/{name}")
    }
}

/// True if `path` is [`join`]`(dir, name)`, compared without building it.
pub fn is_join(path: &str, dir: &str, name: &str) -> bool {
    let Some(rest) = path.strip_prefix(dir) else {
        return false;
    };
    let rest = if dir == "/" { Some(rest) } else { rest.strip_prefix('/') };
    rest == Some(name)
}

/// Validates a single directory-entry name.
pub fn validate_name(name: &str) -> FsResult<()> {
    if name.is_empty() {
        return Err(FsError::InvalidArgument("empty name".into()));
    }
    if name == "." || name == ".." {
        return Err(FsError::InvalidArgument("reserved name".into()));
    }
    if name.contains('/') {
        return Err(FsError::InvalidArgument(format!("name contains '/': {name}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comps(path: &str) -> Vec<&str> {
        components(path).unwrap().collect()
    }

    #[test]
    fn components_of_root_is_empty() {
        assert_eq!(comps("/"), Vec::<&str>::new());
    }

    #[test]
    fn components_splits() {
        assert_eq!(comps("/a/b/c"), vec!["a", "b", "c"]);
        // Repeated separators collapse.
        assert_eq!(comps("//a///b"), vec!["a", "b"]);
    }

    #[test]
    fn relative_and_dotted_paths_rejected() {
        assert!(components("a/b").is_err());
        assert!(components("/a/./b").is_err());
        assert!(components("/a/../b").is_err());
    }

    #[test]
    fn split_parent_works() {
        assert_eq!(split_parent("/a").unwrap(), ("/", "a"));
        assert_eq!(split_parent("/a/b/c").unwrap(), ("/a/b", "c"));
        assert!(split_parent("/").is_err());
    }

    /// The splitters as they were when they built their results: a
    /// `Vec` of components, and an owned, normalized parent and name.
    fn collected_components(path: &str) -> FsResult<Vec<&str>> {
        if !path.starts_with('/') {
            return Err(FsError::InvalidArgument(format!("path not absolute: {path}")));
        }
        let mut out = Vec::new();
        for comp in path.split('/') {
            match comp {
                "" => continue,
                "." | ".." => {
                    return Err(FsError::InvalidArgument(format!("path not normalized: {path}")))
                }
                c => out.push(c),
            }
        }
        Ok(out)
    }

    fn owned_split_parent(path: &str) -> FsResult<(String, String)> {
        let comps = collected_components(path)?;
        let Some((last, init)) = comps.split_last() else {
            return Err(FsError::InvalidArgument("root has no parent".into()));
        };
        let parent = if init.is_empty() { "/".to_string() } else { format!("/{}", init.join("/")) };
        Ok((parent, (*last).to_string()))
    }

    #[test]
    fn borrowed_splits_accept_reject_and_split_as_the_collecting_ones_did() {
        let table = ["/", "/a", "/a/b/c", "//a///b", "/a/b/", "a/b", "/a/./b", "/a/../b", ""];
        for path in table {
            let walked = components(path).map(|c| c.collect::<Vec<_>>());
            assert_eq!(walked, collected_components(path), "components of {path:?}");
            match (split_parent(path), owned_split_parent(path)) {
                (Ok((parent, name)), Ok((old_parent, old_name))) => {
                    assert_eq!(name, old_name, "name of {path:?}");
                    assert_eq!(
                        comps(parent),
                        collected_components(&old_parent).unwrap(),
                        "parent of {path:?}: {parent:?} against {old_parent:?}"
                    );
                    if !path.contains("//") {
                        assert_eq!(parent, old_parent, "parent of {path:?}");
                    }
                }
                (new, old) => assert_eq!(new.map(|_| ()), old.map(|_| ()), "split of {path:?}"),
            }
        }
    }

    #[test]
    fn join_handles_root() {
        assert_eq!(join("/", "x"), "/x");
        assert_eq!(join("/a", "x"), "/a/x");
    }

    #[test]
    fn is_join_agrees_with_join() {
        for (dir, name) in [("/", "x"), ("/a", "x"), ("/a/b", "c.txt")] {
            assert!(is_join(&join(dir, name), dir, name), "{dir} + {name}");
        }
        assert!(!is_join("/ax", "/a", "x"), "no separator");
        assert!(!is_join("/a/x", "/a", "y"));
        assert!(!is_join("/b/x", "/a", "x"));
        assert!(!is_join("/a/x/y", "/a", "x"));
        assert!(!is_join("/x", "/a", "x"));
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("movie.mpg").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name(".").is_err());
        assert!(validate_name("a/b").is_err());
    }
}
