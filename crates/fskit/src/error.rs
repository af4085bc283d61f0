//! Error type shared by every layer of the file-system stack.

use std::fmt;

/// Result alias used throughout the file-system stack.
pub type FsResult<T> = Result<T, FsError>;

/// Errors surfaced by vnode operations.
///
/// The variants mirror the POSIX errno values the original DLFS prototype
/// would have returned from the kernel; the DataLinks layers pattern-match on
/// them (e.g. the rfd write path in §4.2 of the paper retries an open that
/// failed with `AccessDenied` after a successful upcall to DLFM).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// ENOENT: path component does not exist.
    NotFound,
    /// EEXIST: target name already exists.
    AlreadyExists,
    /// EACCES: permission bits or ownership forbid the access.
    AccessDenied,
    /// EPERM: operation requires ownership or superuser privilege.
    NotPermitted,
    /// ENOTDIR: a non-directory appeared where a directory was required.
    NotADirectory,
    /// EISDIR: a directory appeared where a file was required.
    IsADirectory,
    /// ENOTEMPTY: directory removal attempted on a non-empty directory.
    NotEmpty,
    /// EAGAIN/EWOULDBLOCK: a non-blocking lock request could not be granted.
    WouldBlock,
    /// EDEADLK: granting the lock would create a deadlock.
    Deadlock,
    /// EBADF: file descriptor is not open or opened in the wrong mode.
    BadDescriptor,
    /// EINVAL: malformed argument (bad name, bad offset, ...).
    InvalidArgument(String),
    /// EROFS / DataLinks veto: the interposition layer rejected the call.
    ///
    /// Carries a human-readable reason produced by DLFS/DLFM, e.g.
    /// "file is linked to database", "token expired".
    Rejected(String),
    /// EIO: the backing store failed.
    Io(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::AlreadyExists => write!(f, "file exists"),
            FsError::AccessDenied => write!(f, "permission denied"),
            FsError::NotPermitted => write!(f, "operation not permitted"),
            FsError::NotADirectory => write!(f, "not a directory"),
            FsError::IsADirectory => write!(f, "is a directory"),
            FsError::NotEmpty => write!(f, "directory not empty"),
            FsError::WouldBlock => write!(f, "operation would block"),
            FsError::Deadlock => write!(f, "resource deadlock avoided"),
            FsError::BadDescriptor => write!(f, "bad file descriptor"),
            FsError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            FsError::Rejected(msg) => write!(f, "rejected by file manager: {msg}"),
            FsError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for FsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        assert_eq!(FsError::NotFound.to_string(), "no such file or directory");
        assert_eq!(
            FsError::Rejected("file is linked".into()).to_string(),
            "rejected by file manager: file is linked"
        );
        assert_eq!(
            FsError::InvalidArgument("bad name".into()).to_string(),
            "invalid argument: bad name"
        );
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(FsError::AccessDenied, FsError::AccessDenied);
        assert_ne!(FsError::AccessDenied, FsError::NotPermitted);
    }
}
