//! Minimal read-only memory mapping, dependency-free.
//!
//! The on-disk graph store ([`crate::store`]) wants zero-copy access to
//! multi-gigabyte CSR sections; copying them through `read` would cost
//! exactly the O(E) allocation the format exists to avoid. The workspace
//! has no external dependencies, so this module binds the two libc entry
//! points directly (`mmap`/`munmap`, POSIX, present on every platform
//! this crate builds for) behind a safe owner type.
//!
//! This is the only unsafe code in the crate: the crate-level lint is
//! `deny(unsafe_code)` with a scoped allow here, and the safety argument
//! is local — a successful `mmap(PROT_READ, MAP_SHARED)` of `len` bytes
//! stays valid until the matching `munmap`, which [`Mmap::drop`] is the
//! only caller of.

#![allow(unsafe_code)]

use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_void};

use crate::NodeId;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_READ: c_int = 1;
const MAP_SHARED: c_int = 1;
/// `mmap`'s error sentinel (`MAP_FAILED`).
const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

/// A read-only, shared memory mapping of an entire file.
///
/// Dereferences to `&[u8]`; unmapped on drop. The mapping is
/// page-aligned by the kernel, so any section the store lays out at a
/// 64-byte-aligned file offset is 64-byte-aligned in memory too — the
/// alignment contract the typed section views in [`crate::store`] rely
/// on.
pub(crate) struct Mmap {
    ptr: *mut c_void,
    len: usize,
}

// A read-only mapping is plain immutable memory: no interior mutability,
// no thread affinity in the POSIX contract.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps all `len` bytes of `file` read-only.
    ///
    /// `len == 0` is allowed (some fixtures are header-only truncations)
    /// and yields an empty, unmapped buffer — POSIX rejects zero-length
    /// mappings.
    pub(crate) fn of_file(file: &File, len: usize) -> io::Result<Self> {
        if len == 0 {
            return Ok(Mmap {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: fd is a valid open file descriptor for the lifetime of
        // this call; a NULL addr lets the kernel choose placement; the
        // result is checked against MAP_FAILED before use.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == MAP_FAILED || ptr.is_null() {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }

    /// The mapped bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by
        // self; the borrow cannot outlive the unmap in drop.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: exactly the region returned by mmap in of_file;
            // this is the sole munmap call for it.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// Views little-endian mapped bytes as `&[u32]`.
///
/// Panics on misalignment or a ragged length — the store validates both
/// before any cast, so a panic here is a store bug, not bad input.
pub(crate) fn as_u32s(bytes: &[u8]) -> &[u32] {
    assert_eq!(bytes.len() % 4, 0, "ragged u32 section");
    assert_eq!(bytes.as_ptr().align_offset(std::mem::align_of::<u32>()), 0);
    // SAFETY: alignment and length are checked above; u32 has no
    // invalid bit patterns; the store is little-endian on a
    // little-endian target (the only targets this crate builds for).
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) }
}

/// Views little-endian mapped bytes as `&[NodeId]`.
pub(crate) fn as_node_ids(bytes: &[u8]) -> &[NodeId] {
    let words = as_u32s(bytes);
    // SAFETY: NodeId is #[repr(transparent)] over u32.
    unsafe { std::slice::from_raw_parts(words.as_ptr() as *const NodeId, words.len()) }
}

/// Views little-endian mapped bytes as `&[u64]`.
pub(crate) fn as_u64s(bytes: &[u8]) -> &[u64] {
    assert_eq!(bytes.len() % 8, 0, "ragged u64 section");
    assert_eq!(bytes.as_ptr().align_offset(std::mem::align_of::<u64>()), 0);
    // SAFETY: as for as_u32s.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u64, bytes.len() / 8) }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_file_contents() {
        let dir = std::env::temp_dir().join("precipice-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(8192).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let file = File::open(&path).unwrap();
        let map = Mmap::of_file(&file, payload.len()).unwrap();
        assert_eq!(map.bytes(), &payload[..]);
    }

    #[test]
    fn zero_length_maps_to_empty() {
        let dir = std::env::temp_dir().join("precipice-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::File::create(&path).unwrap();
        let file = File::open(&path).unwrap();
        let map = Mmap::of_file(&file, 0).unwrap();
        assert!(map.bytes().is_empty());
    }
}
