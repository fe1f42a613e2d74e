//! Read-only memory-mapped file views with a transparent heap fallback.
//!
//! Serving a multi-gigabyte segment file should not require copying it
//! into the process heap at startup: [`Mmap::open`] maps the file
//! read-only (`PROT_READ`, `MAP_PRIVATE`) through a hand-rolled `mmap`
//! binding — no external crates — so opening is O(1) in the file size
//! and the descriptor matrix is served zero-copy straight out of the
//! page cache. On platforms without `mmap` (or if the syscall fails,
//! e.g. on a filesystem that forbids mapping) the constructor silently
//! falls back to reading the file into an owned buffer, so callers get
//! identical bytes either way and only [`Mmap::is_mapped`] can tell the
//! difference.
//!
//! Lifetime safety is structural: the mapping is only ever exposed by
//! borrowing from the `Mmap` value, and `munmap` runs in `Drop`. Holding
//! the owner alive (the store keeps it inside an `Arc` reachable from
//! every snapshot that references the segment) is therefore sufficient
//! to rule out use-after-unmap; there is no raw-pointer escape hatch.
//! On Unix an `unlink` of a mapped file does not invalidate the mapping,
//! which is what lets compaction delete superseded segment files while
//! pinned snapshots still search them.

use std::fs::File;
use std::io::Read;
use std::ops::Deref;
use std::path::Path;

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    //! Minimal libc surface for read-only file mappings. `std` already
    //! links libc on Unix, so declaring the two symbols is enough — no
    //! crate dependency. Constants are the Linux/POSIX values shared by
    //! every Unix this workspace targets.
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

enum Inner {
    /// A live `mmap(2)` mapping; unmapped on drop.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped {
        ptr: std::ptr::NonNull<u8>,
        len: usize,
    },
    /// Owned copy of the file contents (fallback path and empty files).
    Heap(Vec<u8>),
}

/// A read-only view of a whole file: memory-mapped where the platform
/// allows, an owned heap copy otherwise. Dereferences to `[u8]`.
pub struct Mmap {
    inner: Inner,
}

// SAFETY: the mapping is read-only (PROT_READ) for its entire lifetime
// and the kernel permits concurrent reads from any thread; the heap
// variant is an ordinary Vec. NonNull is what inhibits the auto-traits.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map `path` read-only. Falls back to reading the file into memory
    /// when mapping is unavailable or fails; the bytes seen by the
    /// caller are identical either way.
    pub fn open(path: &Path) -> std::io::Result<Mmap> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        // mmap(2) rejects zero-length mappings; an empty file is served
        // from the (empty) heap variant.
        #[cfg(all(unix, target_pointer_width = "64"))]
        if len > 0 {
            use std::os::unix::io::AsRawFd;
            // SAFETY: fd is a valid open file descriptor, len matches
            // the file size, and the resulting pointer is only read
            // through the checked accessors below while `self` lives.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len as usize,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr != sys::MAP_FAILED {
                let ptr = std::ptr::NonNull::new(ptr.cast::<u8>())
                    .expect("mmap returned null without MAP_FAILED");
                // The fd can be closed now: the mapping stays valid.
                return Ok(Mmap {
                    inner: Inner::Mapped {
                        ptr,
                        len: len as usize,
                    },
                });
            }
        }
        let mut buf = Vec::with_capacity(len as usize);
        file.read_to_end(&mut buf)?;
        Ok(Mmap {
            inner: Inner::Heap(buf),
        })
    }

    /// Wrap an owned byte buffer: what [`Mmap::open`] falls back to, on
    /// demand (tests drive the fallback through it).
    pub fn from_bytes(bytes: Vec<u8>) -> Mmap {
        Mmap {
            inner: Inner::Heap(bytes),
        }
    }

    /// Whether this view is a true memory mapping (`false` on the heap
    /// fallback path).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Inner::Mapped { .. } => true,
            Inner::Heap(_) => false,
        }
    }
}

impl Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Inner::Mapped { ptr, len } => {
                // SAFETY: ptr/len describe a live PROT_READ mapping that
                // outlives this borrow (unmapped only in Drop).
                unsafe { std::slice::from_raw_parts(ptr.as_ptr(), *len) }
            }
            Inner::Heap(buf) => buf,
        }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Inner::Mapped { ptr, len } = &self.inner {
            // SAFETY: exactly the region returned by mmap in `open`;
            // after this the pointer is never dereferenced again.
            unsafe {
                sys::munmap(ptr.as_ptr().cast(), *len);
            }
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("cbir_mmap_{tag}_{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn maps_file_contents_exactly() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("exact", &data);
        let map = Mmap::open(&path).unwrap();
        assert_eq!(&*map, &data[..]);
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(map.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_served_from_heap() {
        let path = temp_file("empty", b"");
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_empty());
        assert!(!map.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapping_survives_unlink_of_the_backing_file() {
        let data = vec![7u8; 4096 * 3];
        let path = temp_file("unlink", &data);
        let map = Mmap::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        // The compaction pattern: the file is gone from the directory,
        // the pinned mapping still reads the old bytes.
        assert_eq!(&*map, &data[..]);
    }

    #[test]
    fn heap_wrapper_roundtrips() {
        let map = Mmap::from_bytes(vec![1, 2, 3]);
        assert_eq!(&*map, &[1, 2, 3]);
        assert!(!map.is_mapped());
    }

    #[test]
    fn shared_across_threads() {
        let data: Vec<u8> = (0..100_000u32).map(|v| v as u8).collect();
        let path = temp_file("threads", &data);
        let map = std::sync::Arc::new(Mmap::open(&path).unwrap());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let map = std::sync::Arc::clone(&map);
                scope.spawn(move || {
                    assert_eq!(map.len(), 100_000);
                    assert_eq!(map[99_999], (99_999u32) as u8);
                });
            }
        });
        std::fs::remove_file(&path).ok();
    }
}
