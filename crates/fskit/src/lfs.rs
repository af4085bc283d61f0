//! Logical file system: the kernel-side glue between applications and a
//! [`FileSystem`] implementation.
//!
//! §2.3 of the paper walks through what happens on `open(2)`: "the call is
//! handled by LFS which first calls fs_lookup() to determine if the file
//! exists... It then allocates a file descriptor and a file structure...
//! Finally, it calls fs_open()". [`Lfs::open`] performs exactly that
//! sequence — one `fs_lookup` per path component followed by `fs_open` — so
//! an interposition layer mounted underneath observes the same decoupled
//! call pattern that shaped the paper's token design (§4.1).
//!
//! The LFS also owns the file-descriptor table, per-descriptor positions,
//! the `written` flag reported to `fs_close` (§4.3 uses it to decide whether
//! metadata must be refreshed), and lock ownership for `fs_lockctl`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{FsError, FsResult};
use crate::flock::{LockOp, LockOwner};
use crate::path;
use crate::types::{Cred, FileAttr, FileKind, Ino, OpenFlags, SetAttr};
use crate::vnode::FileSystem;

/// A file descriptor handle. Plain `u64` newtype; invalid after close.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub u64);

/// Options accepted by [`Lfs::open`], modelled on `open(2)` flags.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenOptions {
    pub read: bool,
    pub write: bool,
    pub truncate: bool,
    /// Create the file (mode `create_mode`) if it does not exist.
    pub create: bool,
    pub create_mode: u16,
}

impl OpenOptions {
    pub fn read_only() -> Self {
        OpenOptions { read: true, ..Default::default() }
    }

    pub fn write_only() -> Self {
        OpenOptions { write: true, ..Default::default() }
    }

    pub fn read_write() -> Self {
        OpenOptions { read: true, write: true, ..Default::default() }
    }

    pub fn write_truncate() -> Self {
        OpenOptions { write: true, truncate: true, ..Default::default() }
    }

    pub fn create(mode: u16) -> Self {
        OpenOptions { write: true, create: true, create_mode: mode, ..Default::default() }
    }

    fn flags(&self) -> OpenFlags {
        OpenFlags { read: self.read, write: self.write, truncate: self.truncate }
    }
}

struct OpenFile {
    ino: Ino,
    pos: u64,
    flags: OpenFlags,
    cred: Cred,
    written: bool,
    lock_owner: LockOwner,
}

/// The logical file system. Cheap to clone via `Arc`; one per "node".
pub struct Lfs {
    fs: Arc<dyn FileSystem>,
    files: Mutex<HashMap<Fd, OpenFile>>,
    next_fd: AtomicU64,
    next_lock_owner: AtomicU64,
}

impl Lfs {
    pub fn new(fs: Arc<dyn FileSystem>) -> Self {
        Lfs {
            fs,
            files: Mutex::new(HashMap::new()),
            next_fd: AtomicU64::new(3), // 0..2 reserved, as tradition demands
            next_lock_owner: AtomicU64::new(1),
        }
    }

    /// Walks all components of `dir_path`, returning the directory inode.
    /// The components are borrowed from the path, one lookup each.
    fn walk_dir(&self, cred: &Cred, dir_path: &str) -> FsResult<Ino> {
        let mut ino = self.fs.root();
        for comp in path::components(dir_path)? {
            ino = self.fs.fs_lookup(cred, ino, comp)?;
        }
        Ok(ino)
    }

    /// Opens `abs_path` per `opts`, reproducing the kernel's
    /// lookup-then-open sequence.
    pub fn open(&self, cred: &Cred, abs_path: &str, opts: OpenOptions) -> FsResult<Fd> {
        if !opts.read && !opts.write && !opts.truncate {
            return Err(FsError::InvalidArgument("open with no access mode".into()));
        }
        let (parent_path, name) = path::split_parent(abs_path)?;
        let parent = self.walk_dir(cred, parent_path)?;

        let ino = match self.fs.fs_lookup(cred, parent, name) {
            Ok(ino) => ino,
            Err(FsError::NotFound) if opts.create => {
                self.fs.fs_create(cred, parent, name, opts.create_mode)?
            }
            Err(e) => return Err(e),
        };

        let flags = opts.flags();
        self.fs.fs_open(cred, ino, flags)?;

        let fd = Fd(self.next_fd.fetch_add(1, Ordering::Relaxed));
        let lock_owner = LockOwner(self.next_lock_owner.fetch_add(1, Ordering::Relaxed));
        self.files.lock().insert(
            fd,
            OpenFile { ino, pos: 0, flags, cred: *cred, written: opts.truncate, lock_owner },
        );
        Ok(fd)
    }

    /// Closes `fd`, releasing its locks and reporting the `written` flag to
    /// the file system's `fs_close` entry point.
    ///
    /// If `fs_close` fails (e.g. the DataLinks close-commit was rejected),
    /// the descriptor is still destroyed — matching the kernel behaviour
    /// that `close(2)` invalidates the fd even on error — and the error is
    /// returned to the caller.
    pub fn close(&self, fd: Fd) -> FsResult<()> {
        let file = self.files.lock().remove(&fd).ok_or(FsError::BadDescriptor)?;
        // Locks release before fs_close so a blocked writer can proceed as
        // soon as the descriptor is gone.
        let _ = self.fs.fs_lockctl(&file.cred, file.ino, file.lock_owner, LockOp::Unlock);
        self.fs.fs_close(&file.cred, file.ino, file.flags, file.written)
    }

    fn with_file<T>(&self, fd: Fd, f: impl FnOnce(&mut OpenFile) -> FsResult<T>) -> FsResult<T> {
        let mut files = self.files.lock();
        let file = files.get_mut(&fd).ok_or(FsError::BadDescriptor)?;
        f(file)
    }

    /// Sequential read at the descriptor's position.
    pub fn read(&self, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        let (ino, pos, cred) = self.with_file(fd, |f| {
            if !f.flags.read {
                return Err(FsError::BadDescriptor);
            }
            Ok((f.ino, f.pos, f.cred))
        })?;
        let n = self.fs.fs_read(&cred, ino, pos, buf)?;
        self.with_file(fd, |f| {
            f.pos += n as u64;
            Ok(())
        })?;
        Ok(n)
    }

    /// Positional read; does not move the descriptor position.
    pub fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let (ino, cred) = self.with_file(fd, |f| {
            if !f.flags.read {
                return Err(FsError::BadDescriptor);
            }
            Ok((f.ino, f.cred))
        })?;
        self.fs.fs_read(&cred, ino, offset, buf)
    }

    /// Reads from the current position to EOF. The result is sized by the
    /// file's length when the read starts and its capacity is its length
    /// (callers keep these buffers, e.g. in the archive store).
    pub fn read_to_end(&self, fd: Fd) -> FsResult<Vec<u8>> {
        let (ino, pos, cred) = self.with_file(fd, |f| {
            if !f.flags.read {
                return Err(FsError::BadDescriptor);
            }
            Ok((f.ino, f.pos, f.cred))
        })?;
        let size = self.fs.fs_getattr(&cred, ino)?.size;
        let mut out = vec![0u8; size.saturating_sub(pos) as usize];
        let mut len = 0;
        loop {
            if len < out.len() {
                let n = self.read(fd, &mut out[len..])?;
                if n == 0 {
                    // The file shrank since its length was read.
                    out.truncate(len);
                    break;
                }
                len += n;
                continue;
            }
            // At the length read up front: one more read sees EOF, or the
            // bytes written since.
            let mut tail = [0u8; 512];
            let n = self.read(fd, &mut tail)?;
            if n == 0 {
                break;
            }
            out.extend_from_slice(&tail[..n]);
            len = out.len();
        }
        out.shrink_to_fit();
        Ok(out)
    }

    /// Sequential write at the descriptor's position.
    pub fn write(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        let (ino, pos, cred) = self.with_file(fd, |f| {
            if !f.flags.wants_write() {
                return Err(FsError::BadDescriptor);
            }
            Ok((f.ino, f.pos, f.cred))
        })?;
        let n = self.fs.fs_write(&cred, ino, pos, data)?;
        self.with_file(fd, |f| {
            f.pos += n as u64;
            f.written = true;
            Ok(())
        })?;
        Ok(n)
    }

    /// Positional write; does not move the descriptor position.
    pub fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        let (ino, cred) = self.with_file(fd, |f| {
            if !f.flags.wants_write() {
                return Err(FsError::BadDescriptor);
            }
            Ok((f.ino, f.cred))
        })?;
        let n = self.fs.fs_write(&cred, ino, offset, data)?;
        self.with_file(fd, |f| {
            f.written = true;
            Ok(())
        })?;
        Ok(n)
    }

    /// Moves the descriptor position (absolute).
    pub fn seek(&self, fd: Fd, pos: u64) -> FsResult<()> {
        self.with_file(fd, |f| {
            f.pos = pos;
            Ok(())
        })
    }

    /// Acquires/releases a whole-file lock on the open descriptor.
    pub fn lockctl(&self, fd: Fd, op: LockOp) -> FsResult<bool> {
        let (ino, owner, cred) = self.with_file(fd, |f| Ok((f.ino, f.lock_owner, f.cred)))?;
        self.fs.fs_lockctl(&cred, ino, owner, op)
    }

    /// Attributes of `abs_path`.
    pub fn stat(&self, cred: &Cred, abs_path: &str) -> FsResult<FileAttr> {
        let ino = self.resolve(cred, abs_path)?;
        self.fs.fs_getattr(cred, ino)
    }

    /// Resolves a path to an inode number.
    pub fn resolve(&self, cred: &Cred, abs_path: &str) -> FsResult<Ino> {
        if abs_path == "/" {
            return Ok(self.fs.root());
        }
        let (parent_path, name) = path::split_parent(abs_path)?;
        let parent = self.walk_dir(cred, parent_path)?;
        self.fs.fs_lookup(cred, parent, name)
    }

    /// Creates a regular file, failing if it exists.
    pub fn create(&self, cred: &Cred, abs_path: &str, mode: u16) -> FsResult<Ino> {
        let (parent_path, name) = path::split_parent(abs_path)?;
        let parent = self.walk_dir(cred, parent_path)?;
        self.fs.fs_create(cred, parent, name, mode)
    }

    /// Creates a directory and any missing ancestors.
    pub fn mkdir_p(&self, cred: &Cred, abs_path: &str, mode: u16) -> FsResult<Ino> {
        let mut ino = self.fs.root();
        for comp in path::components(abs_path)? {
            ino = match self.fs.fs_lookup(cred, ino, comp) {
                Ok(child) => child,
                Err(FsError::NotFound) => self.fs.fs_mkdir(cred, ino, comp, mode)?,
                Err(e) => return Err(e),
            };
        }
        Ok(ino)
    }

    /// Removes a regular file.
    pub fn remove(&self, cred: &Cred, abs_path: &str) -> FsResult<()> {
        let (parent_path, name) = path::split_parent(abs_path)?;
        let parent = self.walk_dir(cred, parent_path)?;
        self.fs.fs_remove(cred, parent, name)
    }

    /// Renames a file or directory (destination must not exist).
    pub fn rename(&self, cred: &Cred, from: &str, to: &str) -> FsResult<()> {
        let (fparent_path, fname) = path::split_parent(from)?;
        let (tparent_path, tname) = path::split_parent(to)?;
        let fparent = self.walk_dir(cred, fparent_path)?;
        let tparent = self.walk_dir(cred, tparent_path)?;
        self.fs.fs_rename(cred, fparent, fname, tparent, tname)
    }

    /// Applies attribute changes to a path (admin helper).
    pub fn setattr(&self, cred: &Cred, abs_path: &str, set: &SetAttr) -> FsResult<FileAttr> {
        let ino = self.resolve(cred, abs_path)?;
        self.fs.fs_setattr(cred, ino, set)
    }

    /// Reads an entire file by path (convenience).
    pub fn read_file(&self, cred: &Cred, abs_path: &str) -> FsResult<Vec<u8>> {
        let fd = self.open(cred, abs_path, OpenOptions::read_only())?;
        let result = self.read_to_end(fd);
        let close = self.close(fd);
        let data = result?;
        close?;
        Ok(data)
    }

    /// Creates-or-truncates and writes an entire file by path (convenience).
    pub fn write_file(&self, cred: &Cred, abs_path: &str, data: &[u8]) -> FsResult<()> {
        let opts = OpenOptions {
            read: false,
            write: true,
            truncate: true,
            create: true,
            create_mode: 0o644,
        };
        let fd = self.open(cred, abs_path, opts)?;
        let result = self.write(fd, data).map(|_| ());
        let close = self.close(fd);
        result?;
        close
    }

    /// True if `abs_path` names an existing file or directory.
    pub fn exists(&self, cred: &Cred, abs_path: &str) -> bool {
        self.stat(cred, abs_path).is_ok()
    }

    /// True if `abs_path` is a directory.
    pub fn is_dir(&self, cred: &Cred, abs_path: &str) -> bool {
        self.stat(cred, abs_path).map(|a| a.kind == FileKind::Dir).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::flock::LockKind;
    use crate::memfs::MemFs;
    use crate::types::DirEntry;

    const ALICE: Cred = Cred { uid: 100, gid: 100 };

    fn lfs() -> Lfs {
        Lfs::new(Arc::new(MemFs::with_clock(Arc::new(SimClock::new(1_000)))))
    }

    #[test]
    fn open_create_write_read_roundtrip() {
        let lfs = lfs();
        lfs.mkdir_p(&ALICE, "/data", 0o755).unwrap();
        let fd = lfs.open(&ALICE, "/data/f.txt", OpenOptions::create(0o644)).unwrap();
        lfs.write(fd, b"hello").unwrap();
        lfs.close(fd).unwrap();

        assert_eq!(lfs.read_file(&ALICE, "/data/f.txt").unwrap(), b"hello");
    }

    #[test]
    fn read_to_end_returns_an_exactly_sized_buffer() {
        let lfs = lfs();
        for len in [0, 4096, 64 * 1024 + 1] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            lfs.write_file(&ALICE, "/f", &data).unwrap();
            let got = lfs.read_file(&ALICE, "/f").unwrap();
            assert_eq!(got, data, "{len} B");
            assert_eq!(got.capacity(), got.len(), "{len} B: no slack kept");

            // From a moved position, and past the end.
            let fd = lfs.open(&ALICE, "/f", OpenOptions::read_only()).unwrap();
            let mut head = [0u8; 7];
            let skipped = lfs.read(fd, &mut head).unwrap();
            let rest = lfs.read_to_end(fd).unwrap();
            assert_eq!(rest, &data[skipped..]);
            assert_eq!(rest.capacity(), rest.len());
            assert!(lfs.read_to_end(fd).unwrap().is_empty());
            lfs.close(fd).unwrap();
        }
    }

    /// A `MemFs` whose `fs_getattr` reports the size off by `skew` bytes,
    /// as if the file changed length between the stat and the reads.
    struct StaleSize {
        fs: MemFs,
        skew: i64,
    }

    impl FileSystem for StaleSize {
        fn root(&self) -> Ino {
            self.fs.root()
        }
        fn fs_lookup(&self, cred: &Cred, parent: Ino, name: &str) -> FsResult<Ino> {
            self.fs.fs_lookup(cred, parent, name)
        }
        fn fs_getattr(&self, cred: &Cred, ino: Ino) -> FsResult<FileAttr> {
            let mut attr = self.fs.fs_getattr(cred, ino)?;
            attr.size = attr.size.saturating_add_signed(self.skew);
            Ok(attr)
        }
        fn fs_setattr(&self, cred: &Cred, ino: Ino, set: &SetAttr) -> FsResult<FileAttr> {
            self.fs.fs_setattr(cred, ino, set)
        }
        fn fs_create(&self, cred: &Cred, parent: Ino, name: &str, mode: u16) -> FsResult<Ino> {
            self.fs.fs_create(cred, parent, name, mode)
        }
        fn fs_mkdir(&self, cred: &Cred, parent: Ino, name: &str, mode: u16) -> FsResult<Ino> {
            self.fs.fs_mkdir(cred, parent, name, mode)
        }
        fn fs_open(&self, cred: &Cred, ino: Ino, flags: OpenFlags) -> FsResult<()> {
            self.fs.fs_open(cred, ino, flags)
        }
        fn fs_close(&self, cred: &Cred, ino: Ino, flags: OpenFlags, written: bool) -> FsResult<()> {
            self.fs.fs_close(cred, ino, flags, written)
        }
        fn fs_read(&self, cred: &Cred, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
            self.fs.fs_read(cred, ino, offset, buf)
        }
        fn fs_write(&self, cred: &Cred, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
            self.fs.fs_write(cred, ino, offset, data)
        }
        fn fs_remove(&self, cred: &Cred, parent: Ino, name: &str) -> FsResult<()> {
            self.fs.fs_remove(cred, parent, name)
        }
        fn fs_rmdir(&self, cred: &Cred, parent: Ino, name: &str) -> FsResult<()> {
            self.fs.fs_rmdir(cred, parent, name)
        }
        fn fs_rename(&self, cred: &Cred, p: Ino, n: &str, np: Ino, nn: &str) -> FsResult<()> {
            self.fs.fs_rename(cred, p, n, np, nn)
        }
        fn fs_readdir(&self, cred: &Cred, ino: Ino) -> FsResult<Vec<DirEntry>> {
            self.fs.fs_readdir(cred, ino)
        }
        fn fs_lockctl(
            &self,
            cred: &Cred,
            ino: Ino,
            owner: LockOwner,
            op: LockOp,
        ) -> FsResult<bool> {
            self.fs.fs_lockctl(cred, ino, owner, op)
        }
    }

    #[test]
    fn read_to_end_reads_what_is_there_when_the_length_it_read_is_stale() {
        let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        for skew in [-4999, -1000, -1, 1, 700, 1 << 20] {
            let fs = MemFs::with_clock(Arc::new(SimClock::new(1_000)));
            let lfs = Lfs::new(Arc::new(StaleSize { fs, skew }));
            lfs.write_file(&ALICE, "/f", &data).unwrap();
            let got = lfs.read_file(&ALICE, "/f").unwrap();
            assert_eq!(got, data, "skew {skew}");
            assert_eq!(got.capacity(), got.len(), "skew {skew}: no slack kept");
        }
    }

    #[test]
    fn sequential_position_advances() {
        let lfs = lfs();
        lfs.write_file(&ALICE, "/f", b"abcdef").unwrap();
        let fd = lfs.open(&ALICE, "/f", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 3];
        lfs.read(fd, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        lfs.read(fd, &mut buf).unwrap();
        assert_eq!(&buf, b"def");
        assert_eq!(lfs.read(fd, &mut buf).unwrap(), 0);
        lfs.close(fd).unwrap();
    }

    #[test]
    fn positional_io_does_not_move_cursor() {
        let lfs = lfs();
        lfs.write_file(&ALICE, "/f", b"abcdef").unwrap();
        let fd = lfs.open(&ALICE, "/f", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 2];
        lfs.read_at(fd, 4, &mut buf).unwrap();
        assert_eq!(&buf, b"ef");
        let mut buf3 = [0u8; 3];
        lfs.read(fd, &mut buf3).unwrap();
        assert_eq!(&buf3, b"abc");
        lfs.close(fd).unwrap();
    }

    #[test]
    fn seek_repositions() {
        let lfs = lfs();
        lfs.write_file(&ALICE, "/f", b"abcdef").unwrap();
        let fd = lfs.open(&ALICE, "/f", OpenOptions::read_only()).unwrap();
        lfs.seek(fd, 3).unwrap();
        let mut buf = [0u8; 3];
        lfs.read(fd, &mut buf).unwrap();
        assert_eq!(&buf, b"def");
        lfs.close(fd).unwrap();
    }

    #[test]
    fn read_on_write_only_fd_rejected() {
        let lfs = lfs();
        let fd = lfs.open(&ALICE, "/f", OpenOptions::create(0o644)).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(lfs.read(fd, &mut buf), Err(FsError::BadDescriptor));
        lfs.close(fd).unwrap();
    }

    #[test]
    fn write_on_read_only_fd_rejected() {
        let lfs = lfs();
        lfs.write_file(&ALICE, "/f", b"x").unwrap();
        let fd = lfs.open(&ALICE, "/f", OpenOptions::read_only()).unwrap();
        assert_eq!(lfs.write(fd, b"y"), Err(FsError::BadDescriptor));
        lfs.close(fd).unwrap();
    }

    #[test]
    fn close_invalidates_fd() {
        let lfs = lfs();
        lfs.write_file(&ALICE, "/f", b"x").unwrap();
        let fd = lfs.open(&ALICE, "/f", OpenOptions::read_only()).unwrap();
        lfs.close(fd).unwrap();
        assert_eq!(lfs.close(fd), Err(FsError::BadDescriptor));
        let mut buf = [0u8; 1];
        assert_eq!(lfs.read(fd, &mut buf), Err(FsError::BadDescriptor));
    }

    #[test]
    fn open_missing_without_create_fails() {
        let lfs = lfs();
        assert_eq!(lfs.open(&ALICE, "/nope", OpenOptions::read_only()), Err(FsError::NotFound));
    }

    #[test]
    fn mkdir_p_is_idempotent() {
        let lfs = lfs();
        lfs.mkdir_p(&ALICE, "/a/b/c", 0o755).unwrap();
        lfs.mkdir_p(&ALICE, "/a/b/c", 0o755).unwrap();
        assert!(lfs.is_dir(&ALICE, "/a/b/c"));
    }

    #[test]
    fn write_file_truncates_previous_content() {
        let lfs = lfs();
        lfs.write_file(&ALICE, "/f", b"long content here").unwrap();
        lfs.write_file(&ALICE, "/f", b"tiny").unwrap();
        assert_eq!(lfs.read_file(&ALICE, "/f").unwrap(), b"tiny");
    }

    #[test]
    fn locks_release_on_close() {
        let lfs = lfs();
        lfs.write_file(&ALICE, "/f", b"x").unwrap();
        let fd1 = lfs.open(&ALICE, "/f", OpenOptions::read_write()).unwrap();
        assert!(lfs.lockctl(fd1, LockOp::Lock(LockKind::Exclusive)).unwrap());
        let fd2 = lfs.open(&ALICE, "/f", OpenOptions::read_write()).unwrap();
        assert_eq!(
            lfs.lockctl(fd2, LockOp::TryLock(LockKind::Exclusive)),
            Err(FsError::WouldBlock)
        );
        lfs.close(fd1).unwrap();
        assert!(lfs.lockctl(fd2, LockOp::TryLock(LockKind::Exclusive)).unwrap());
        lfs.close(fd2).unwrap();
    }

    #[test]
    fn written_flag_only_set_after_write() {
        // Observed indirectly: a truncating open marks written even without
        // an explicit write call.
        let lfs = lfs();
        lfs.write_file(&ALICE, "/f", b"data").unwrap();
        let fd = lfs.open(&ALICE, "/f", OpenOptions::write_truncate()).unwrap();
        lfs.close(fd).unwrap();
        assert_eq!(lfs.read_file(&ALICE, "/f").unwrap(), b"");
    }

    #[test]
    fn open_count_tracks_descriptors() {
        let lfs = lfs();
        lfs.write_file(&ALICE, "/f", b"x").unwrap();
        assert_eq!(lfs.files.lock().len(), 0);
        let fd = lfs.open(&ALICE, "/f", OpenOptions::read_only()).unwrap();
        assert_eq!(lfs.files.lock().len(), 1);
        lfs.close(fd).unwrap();
        assert_eq!(lfs.files.lock().len(), 0);
    }
}
