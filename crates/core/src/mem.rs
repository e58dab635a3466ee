//! Tagged SRAM over a copy-on-write page store.
//!
//! Embedded CHERIoT memory is tightly-coupled SRAM with one out-of-band tag
//! bit per 8-byte (capability-sized) granule. Scalar stores clear the tag of
//! the granule they touch; capability loads/stores move the tag with the
//! data. Capability accesses must be 8-byte aligned.
//!
//! ## The page store
//!
//! Architectural content lives in 4 KiB [`Page`]s — the data bytes plus the
//! covering slice of the packed tag bitmap (512 granules = 8 tag words, so
//! pages own whole tag words) — held through `Arc` handles. Pages are
//! immutable while shared: every mutating path funnels through the write
//! barrier ([`Sram::page_mut`]), which marks the page dirty *and* unshares
//! it (`Arc::make_mut`) before handing out a mutable reference. That makes
//! the dirty-tracking barrier the CoW break point: the first write to a
//! page shared with a snapshot or a forked sibling clones just that page.
//!
//! Structural sharing is what the snapshot/fork engine rides on:
//!
//! * a **capture** hands the snapshot handle clones of the machine's pages
//!   — O(pages) refcount bumps, zero byte copies;
//! * a **restore/fork** adopts the snapshot's handles the same way, so a
//!   1000-device fleet forked from one warm image holds one copy of every
//!   boot page and each instance pays only for the pages it dirties;
//! * a fresh bank shares a single zero page across all slots, so an
//!   untouched machine is resident-cheap too.
//!
//! The `--no-cow` escape hatch ([`Sram::set_cow`]) is CoW with a forced
//! break at fork: every transfer adopts page handles exactly as under CoW,
//! and the receiving bank then unshares at once, so pages stay uniquely
//! owned and captures/restores pay (and are charged) full page copies —
//! the pre-CoW cost model. CoW on/off is architecturally invisible — runs
//! are byte-identical either way (property-tested).
//!
//! Two simulator-only acceleration structures ride alongside the
//! architectural state (neither is architecturally visible, and neither is
//! ever shared between banks):
//!
//! * the tag bits are packed 64 per `u64` word, so sweeps and range
//!   operations use mask arithmetic and popcounts instead of per-granule
//!   loops, and the background revoker can skip whole all-clear words;
//! * a **decoded-capability side cache** keeps the expanded form of the
//!   capability last written to each granule, so a `CLC` that follows a
//!   `CSC` is a copy instead of a bounds re-derivation. Scalar writes, raw
//!   word writes and tag clears invalidate the slot; the raw 64-bit word
//!   plus tag bit remain the source of truth. The cache is allocated lazily
//!   on first capability traffic, so banks that never move capabilities
//!   (fleet guest nodes) never pay its footprint.

use crate::trap::TrapCause;
use cheriot_cap::Capability;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Capability-granule size: 8 bytes (a 64-bit capability).
pub const GRANULE: u32 = 8;

/// Page size of the copy-on-write store (also the dirty-tracking unit):
/// 4 KiB. A page is 512 granules, an exact multiple of the 64-granule tag
/// words, so each page owns whole tag words and CoW moves data and tags
/// together.
pub const PAGE_SIZE: u32 = 4096;

const PAGE_SHIFT: usize = 12;
const PAGE_MASK: usize = PAGE_SIZE as usize - 1;

/// Granules per page.
const PAGE_GRANULES: usize = (PAGE_SIZE / GRANULE) as usize;

/// Tag words per page (64 granules per word).
const PAGE_TAG_WORDS: usize = PAGE_GRANULES / 64;

/// Host bytes actually moved when a page's *content* is copied: the data
/// bytes plus the covering tag-bitmap words. This is the unit the honest
/// fork-cost accounting charges per deep page copy (the old accounting
/// forgot the tag bytes).
pub const PAGE_COPY_BYTES: u64 = PAGE_SIZE as u64 + (PAGE_TAG_WORDS * 8) as u64;

/// Host bytes moved adopting a page by handle (an `Arc` clone): the
/// pointer write. This is the entire per-page fork cost under CoW.
pub const PAGE_HANDLE_BYTES: u64 = std::mem::size_of::<Arc<Page>>() as u64;

/// Globally unique content-identity stamps for snapshot lineage. Never
/// zero (zero means "unstamped").
static CONTENT_IDS: AtomicU64 = AtomicU64::new(1);

pub(crate) fn fresh_content_id() -> u64 {
    CONTENT_IDS.fetch_add(1, Ordering::Relaxed)
}

/// One CoW unit: 4 KiB of data plus its covering tag-bitmap slice.
/// Immutable while shared; the write barrier unshares before mutating.
#[derive(Clone)]
pub struct Page {
    bytes: [u8; PAGE_SIZE as usize],
    /// Tag words for this page's granules: bit `g % 64` of word
    /// `(g / 64) % PAGE_TAG_WORDS` for global granule `g`.
    tags: [u64; PAGE_TAG_WORDS],
}

impl Page {
    const ZERO: Page = Page {
        bytes: [0; PAGE_SIZE as usize],
        tags: [0; PAGE_TAG_WORDS],
    };

    /// Sets/clears the tag of global granule `g` (which must live in this
    /// page — page-alignment makes `(g / 64) % PAGE_TAG_WORDS` its word).
    #[inline]
    fn tag_set(&mut self, g: usize, v: bool) {
        let w = (g >> 6) & (PAGE_TAG_WORDS - 1);
        let mask = 1u64 << (g & 63);
        if v {
            self.tags[w] |= mask;
        } else {
            self.tags[w] &= !mask;
        }
    }

    /// Clears every tag in the (page-local) global granule range
    /// `[g0, g1]`, both ends inclusive and inside this page.
    fn detag_range(&mut self, g0: usize, g1: usize) {
        let (w0, b0) = ((g0 >> 6) & (PAGE_TAG_WORDS - 1), g0 & 63);
        let (w1, b1) = ((g1 >> 6) & (PAGE_TAG_WORDS - 1), g1 & 63);
        let lo = !0u64 << b0;
        let hi = !0u64 >> (63 - b1);
        if w0 == w1 {
            self.tags[w0] &= !(lo & hi);
        } else {
            self.tags[w0] &= !lo;
            for w in &mut self.tags[w0 + 1..w1] {
                *w = 0;
            }
            self.tags[w1] &= !hi;
        }
    }
}

/// Host-side counters for the CoW page store, exposed via
/// [`Sram::cow_stats`]. Not architectural state; never captured or
/// restored by snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Pages unshared by the write barrier: first writes to a page shared
    /// with a snapshot, a forked sibling, or the bank's initial zero page.
    pub breaks: u64,
    /// Host bytes those breaks copied (`breaks * PAGE_COPY_BYTES`): the
    /// deferred fork cost actually paid so far.
    pub bytes_copied: u64,
}

/// Host bytes and pages actually moved by a capture or restore. `bytes`
/// is honest: handle adoptions under CoW cost [`PAGE_HANDLE_BYTES`] per
/// page, deep copies cost [`PAGE_COPY_BYTES`] (data *and* tag words).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct XferCost {
    /// Pages whose content was transferred (by handle or by copy).
    pub pages: u32,
    /// Host bytes moved doing it.
    pub bytes: u64,
}

/// A bank of byte-addressable tagged SRAM over the CoW page store.
pub struct Sram {
    base: u32,
    /// Logical size in bytes (the last page may be partial; its tail
    /// bytes and tag bits are unreachable and stay zero).
    len: usize,
    /// The page store. Shared (`Arc` refcount > 1) pages are immutable;
    /// the write barrier unshares before mutating.
    pages: Vec<Arc<Page>>,
    /// Decoded-capability side cache, one slot per granule, allocated
    /// lazily on first capability traffic (empty = cold). `Some(c)` only
    /// when the granule's tag is set and `c` equals
    /// `Capability::from_word(word, true)` for the granule's current word.
    caps: Vec<Option<Capability>>,
    /// Dirty-page bitmap: bit `p % 64` of word `p / 64` is set when page
    /// `p` may have been written since the last snapshot/restore stamp.
    /// Maintained conservatively on every store/zero path (never on
    /// reads — side-cache fills are derived state), so a clear bit
    /// *guarantees* the page still holds the stamped content.
    dirty: Vec<u64>,
    /// Running population count of `dirty`, so `dirty_pages()` and the
    /// any-dirty checks are O(1) instead of a bitmap scan.
    dirty_count: u32,
    /// Content-identity stamp the dirty bitmap is relative to: the bank
    /// held exactly the content identified by this id when the bitmap was
    /// last cleared. Zero means unstamped (no lineage; restores fall back
    /// to full copies).
    content: u64,
    /// Structural sharing enabled? When false (`--no-cow`), every
    /// transfer ends in a forced break ([`Sram::unshare`]), so pages stay
    /// uniquely owned and captures/restores copy bytes — the pre-CoW cost
    /// model, kept as an escape hatch and comparison baseline.
    cow: bool,
    /// Write-barrier unshare counters (host-side, never snapshotted).
    cow_stats: CowStats,
}

impl std::fmt::Debug for Sram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sram")
            .field("base", &format_args!("{:#010x}", self.base))
            .field("size", &self.len)
            .field("cow", &self.cow)
            .finish()
    }
}

impl Clone for Sram {
    /// Clones the bank: O(pages) handle clones — the clone shares every
    /// page with the original and either side's next write unshares just
    /// that page. With CoW disabled the clone unshares at once. The
    /// decoded side cache is derived state and starts cold in the clone;
    /// CoW counters start at zero.
    fn clone(&self) -> Sram {
        let mut clone = Sram {
            base: self.base,
            len: self.len,
            pages: self.pages.clone(),
            caps: Vec::new(),
            dirty: self.dirty.clone(),
            dirty_count: self.dirty_count,
            content: self.content,
            cow: self.cow,
            cow_stats: CowStats::default(),
        };
        clone.unshare();
        clone
    }
}

impl Sram {
    /// Creates a zeroed SRAM bank of `size` bytes at `base`. Every page
    /// slot shares one zero page, so a fresh bank is resident-cheap; the
    /// first write to each page unshares it.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `size` is not granule-aligned.
    pub fn new(base: u32, size: u32) -> Sram {
        assert_eq!(base % GRANULE, 0, "SRAM base must be granule-aligned");
        assert_eq!(size % GRANULE, 0, "SRAM size must be granule-aligned");
        let pages = (size as usize).div_ceil(PAGE_SIZE as usize);
        let zero = Arc::new(Page::ZERO);
        Sram {
            base,
            len: size as usize,
            pages: vec![zero; pages],
            caps: Vec::new(),
            dirty: vec![0; pages.div_ceil(64)],
            dirty_count: 0,
            content: 0,
            cow: true,
            cow_stats: CowStats::default(),
        }
    }

    /// Enables/disables structural sharing. Disabling materializes every
    /// currently-shared page into a private copy.
    pub fn set_cow(&mut self, on: bool) {
        self.cow = on;
        self.unshare();
    }

    /// With CoW disabled, the forced break: gives the bank a private copy
    /// of every page it shares, so transfers that adopted handles end
    /// with uniquely-owned pages. Not counted as a CoW break (it is the
    /// mode's rule, not a write). A no-op under CoW.
    fn unshare(&mut self) {
        if !self.cow {
            for p in &mut self.pages {
                Arc::make_mut(p);
            }
        }
    }

    /// Is structural sharing enabled?
    pub fn cow_enabled(&self) -> bool {
        self.cow
    }

    /// Write-barrier unshare counters.
    pub fn cow_stats(&self) -> CowStats {
        self.cow_stats
    }

    /// Pages currently shared with another bank (or the zero page):
    /// `Arc` refcount > 1. These are the pages a fork has not yet paid
    /// for.
    pub fn shared_pages(&self) -> u32 {
        self.pages
            .iter()
            .filter(|p| Arc::strong_count(p) > 1)
            .count() as u32
    }

    /// Host bytes of page content this bank uniquely owns (its private
    /// pages, charged at [`PAGE_COPY_BYTES`] each). The structural-sharing
    /// complement of [`Sram::shared_pages`]: a freshly forked bank is
    /// near zero, and each CoW break moves one page from shared to
    /// unique.
    pub fn unique_resident_bytes(&self) -> u64 {
        u64::from(self.num_pages() - self.shared_pages()) * PAGE_COPY_BYTES
    }

    /// Base address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.len as u32
    }

    /// End address (exclusive). `u64` because a bank ending at the top of
    /// the address space has end `0x1_0000_0000`, which a `u32` cannot
    /// hold (the old `u32` return overflowed for such banks).
    pub fn end(&self) -> u64 {
        u64::from(self.base) + self.len as u64
    }

    /// Does this bank contain `[addr, addr+size)`?
    pub fn contains(&self, addr: u32, size: u32) -> bool {
        let a = u64::from(addr);
        a >= u64::from(self.base) && a + u64::from(size) <= self.end()
    }

    fn offset(&self, addr: u32) -> usize {
        (addr - self.base) as usize
    }

    fn granule(&self, addr: u32) -> usize {
        self.offset(addr) / GRANULE as usize
    }

    fn granules(&self) -> usize {
        self.len / GRANULE as usize
    }

    /// The packed tag word `w` (64 granules per word; 8 words per page).
    #[inline]
    fn tag_word(&self, w: usize) -> u64 {
        self.pages[w / PAGE_TAG_WORDS].tags[w % PAGE_TAG_WORDS]
    }

    fn tag_get(&self, g: usize) -> bool {
        self.tag_word(g >> 6) & (1u64 << (g & 63)) != 0
    }

    /// The write barrier and CoW break point: marks page `p` dirty
    /// (maintaining the running dirty count) and returns a uniquely-owned
    /// mutable reference to it, cloning the page first if it is shared
    /// with a snapshot, a forked sibling, or the initial zero page.
    #[inline]
    fn page_mut(&mut self, p: usize) -> &mut Page {
        let (w, bit) = (p >> 6, 1u64 << (p & 63));
        if self.dirty[w] & bit == 0 {
            self.dirty[w] |= bit;
            self.dirty_count += 1;
        }
        if Arc::strong_count(&self.pages[p]) > 1 {
            self.cow_stats.breaks += 1;
            self.cow_stats.bytes_copied += PAGE_COPY_BYTES;
        }
        Arc::make_mut(&mut self.pages[p])
    }

    /// The decoded side cache, allocated on first use.
    fn caps_mut(&mut self) -> &mut [Option<Capability>] {
        if self.caps.is_empty() {
            self.caps = vec![None; self.granules()];
        }
        &mut self.caps
    }

    /// Drops the side-cache entry for granule `g` if the cache is live.
    #[inline]
    fn caps_clear(&mut self, g: usize) {
        if let Some(slot) = self.caps.get_mut(g) {
            *slot = None;
        }
    }

    fn check(&self, addr: u32, size: u32) -> Result<(), TrapCause> {
        if !self.contains(addr, size) {
            return Err(TrapCause::BusError { addr });
        }
        if !addr.is_multiple_of(size) {
            return Err(TrapCause::Misaligned { addr });
        }
        Ok(())
    }

    /// Reads a scalar of `size` ∈ {1, 2, 4} bytes, little-endian,
    /// zero-extended.
    ///
    /// # Errors
    ///
    /// Bus error outside the bank; misaligned access faults.
    pub fn read_scalar(&self, addr: u32, size: u32) -> Result<u32, TrapCause> {
        self.check(addr, size)?;
        debug_assert!(matches!(size, 1 | 2 | 4));
        let o = self.offset(addr);
        // Aligned 1/2/4-byte accesses never cross a page boundary.
        let pg = &self.pages[o >> PAGE_SHIFT];
        let po = o & PAGE_MASK;
        Ok(match size {
            1 => u32::from(pg.bytes[po]),
            2 => u32::from(u16::from_le_bytes([pg.bytes[po], pg.bytes[po + 1]])),
            _ => u32::from_le_bytes(pg.bytes[po..po + 4].try_into().unwrap()),
        })
    }

    /// Writes a scalar of `size` ∈ {1, 2, 4} bytes and clears the granule's
    /// tag (a partial overwrite invalidates any capability stored there).
    ///
    /// # Errors
    ///
    /// As [`Sram::read_scalar`].
    pub fn write_scalar(&mut self, addr: u32, size: u32, value: u32) -> Result<(), TrapCause> {
        self.check(addr, size)?;
        debug_assert!(matches!(size, 1 | 2 | 4));
        let o = self.offset(addr);
        let g = o / GRANULE as usize;
        self.caps_clear(g);
        let pg = self.page_mut(o >> PAGE_SHIFT);
        let po = o & PAGE_MASK;
        match size {
            1 => pg.bytes[po] = value as u8,
            2 => pg.bytes[po..po + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            _ => pg.bytes[po..po + 4].copy_from_slice(&value.to_le_bytes()),
        }
        pg.tag_set(g, false);
        Ok(())
    }

    /// Reads a capability-sized word with its tag. Requires 8-byte
    /// alignment.
    ///
    /// # Errors
    ///
    /// As [`Sram::read_scalar`].
    pub fn read_cap_word(&self, addr: u32) -> Result<(u64, bool), TrapCause> {
        self.check(addr, GRANULE)?;
        let o = self.offset(addr);
        let pg = &self.pages[o >> PAGE_SHIFT];
        let po = o & PAGE_MASK;
        let word = u64::from_le_bytes(pg.bytes[po..po + GRANULE as usize].try_into().unwrap());
        Ok((word, self.tag_get(self.granule(addr))))
    }

    /// Writes a capability-sized word and its tag. Requires 8-byte
    /// alignment. Invalidates the granule's decoded-capability slot (the
    /// caller supplied a raw word, not a decoded capability).
    ///
    /// # Errors
    ///
    /// As [`Sram::read_scalar`].
    pub fn write_cap_word(&mut self, addr: u32, word: u64, tag: bool) -> Result<(), TrapCause> {
        self.check(addr, GRANULE)?;
        let o = self.offset(addr);
        let g = o / GRANULE as usize;
        self.caps_clear(g);
        let pg = self.page_mut(o >> PAGE_SHIFT);
        let po = o & PAGE_MASK;
        pg.bytes[po..po + GRANULE as usize].copy_from_slice(&word.to_le_bytes());
        pg.tag_set(g, tag);
        Ok(())
    }

    /// Writes a decoded capability (word + tag) and fills the granule's
    /// side-cache slot, so a subsequent [`Sram::read_cap`] is a copy rather
    /// than a bounds re-derivation.
    ///
    /// # Errors
    ///
    /// As [`Sram::read_scalar`].
    pub fn write_cap(&mut self, addr: u32, c: Capability) -> Result<(), TrapCause> {
        self.check(addr, GRANULE)?;
        let o = self.offset(addr);
        let g = o / GRANULE as usize;
        if c.tag() {
            self.caps_mut()[g] = Some(c);
        } else {
            self.caps_clear(g);
        }
        let pg = self.page_mut(o >> PAGE_SHIFT);
        let po = o & PAGE_MASK;
        pg.bytes[po..po + GRANULE as usize].copy_from_slice(&c.to_word().to_le_bytes());
        pg.tag_set(g, c.tag());
        Ok(())
    }

    /// Reads a capability, consulting the decoded side cache. A miss on a
    /// tagged granule decodes the raw word once and fills the slot;
    /// untagged granules never decode (and never populate the cache).
    ///
    /// # Errors
    ///
    /// As [`Sram::read_scalar`].
    pub fn read_cap(&mut self, addr: u32) -> Result<Capability, TrapCause> {
        let (word, tag) = self.read_cap_word(addr)?;
        if !tag {
            return Ok(Capability::from_word(word, false));
        }
        let g = self.granule(addr);
        if let Some(&Some(c)) = self.caps.get(g) {
            debug_assert_eq!(c, Capability::from_word(word, tag));
            debug_assert_eq!(c.bounds(), Capability::from_word(word, tag).bounds());
            return Ok(c);
        }
        let c = Capability::from_word(word, true);
        self.caps_mut()[g] = Some(c);
        Ok(c)
    }

    /// Zeroes `[addr, addr+len)` and clears all covered tags. Used by the
    /// allocator (`free` zeroes memory) and the switcher (stack clearing).
    ///
    /// # Errors
    ///
    /// Bus error if the range leaves the bank.
    pub fn zero_range(&mut self, addr: u32, len: u32) -> Result<(), TrapCause> {
        if len == 0 {
            return Ok(());
        }
        if !self.contains(addr, len) {
            return Err(TrapCause::BusError { addr });
        }
        let o = self.offset(addr);
        let end = o + len as usize;
        if !self.caps.is_empty() {
            let g0 = o / GRANULE as usize;
            let g1 = (end - 1) / GRANULE as usize;
            self.caps[g0..=g1].fill(None);
        }
        let mut cur = o;
        while cur < end {
            let p = cur >> PAGE_SHIFT;
            let stop = ((p + 1) << PAGE_SHIFT).min(end);
            let pg = self.page_mut(p);
            pg.bytes[cur & PAGE_MASK..((stop - 1) & PAGE_MASK) + 1].fill(0);
            pg.detag_range(cur / GRANULE as usize, (stop - 1) / GRANULE as usize);
            cur = stop;
        }
        Ok(())
    }

    /// Copies `[addr, addr+len)` out of the bank (DMA read side). No
    /// alignment requirement; tags are not readable this way (DMA moves
    /// data, never capabilities).
    ///
    /// # Errors
    ///
    /// Bus error if the range leaves the bank.
    pub fn read_bytes(&self, addr: u32, buf: &mut [u8]) -> Result<(), TrapCause> {
        if buf.is_empty() {
            return Ok(());
        }
        if !self.contains(addr, buf.len() as u32) {
            return Err(TrapCause::BusError { addr });
        }
        let o = self.offset(addr);
        let end = o + buf.len();
        let mut cur = o;
        while cur < end {
            let p = cur >> PAGE_SHIFT;
            let stop = ((p + 1) << PAGE_SHIFT).min(end);
            let po = cur & PAGE_MASK;
            buf[cur - o..stop - o].copy_from_slice(&self.pages[p].bytes[po..po + (stop - cur)]);
            cur = stop;
        }
        Ok(())
    }

    /// Copies `buf` into `[addr, addr+len)` (DMA write side), clearing
    /// every covered granule's tag and decoded-capability slot — a DMA
    /// store is a raw-byte overwrite, so any capability it touches (even
    /// partially) must die — and passing every covered page through the
    /// write barrier, so shared pages CoW-break and snapshot/fork never
    /// under-copies. No alignment requirement.
    ///
    /// # Errors
    ///
    /// Bus error if the range leaves the bank.
    pub fn write_bytes(&mut self, addr: u32, buf: &[u8]) -> Result<(), TrapCause> {
        if buf.is_empty() {
            return Ok(());
        }
        if !self.contains(addr, buf.len() as u32) {
            return Err(TrapCause::BusError { addr });
        }
        let o = self.offset(addr);
        let end = o + buf.len();
        if !self.caps.is_empty() {
            let g0 = o / GRANULE as usize;
            let g1 = (end - 1) / GRANULE as usize;
            self.caps[g0..=g1].fill(None);
        }
        let mut cur = o;
        while cur < end {
            let p = cur >> PAGE_SHIFT;
            let stop = ((p + 1) << PAGE_SHIFT).min(end);
            let pg = self.page_mut(p);
            let po = cur & PAGE_MASK;
            pg.bytes[po..po + (stop - cur)].copy_from_slice(&buf[cur - o..stop - o]);
            pg.detag_range(cur / GRANULE as usize, (stop - 1) / GRANULE as usize);
            cur = stop;
        }
        Ok(())
    }

    /// Is the tag set for the granule containing `addr`?
    pub fn tag_at(&self, addr: u32) -> bool {
        if !self.contains(addr, 1) {
            return false;
        }
        self.tag_get(self.granule(addr))
    }

    /// Count of set tags in `[addr, addr+len)` — used by sweeps and tests.
    pub fn count_tags(&self, addr: u32, len: u32) -> usize {
        if len == 0 || !self.contains(addr, len) {
            return 0;
        }
        let o = self.offset(addr);
        let g0 = o / GRANULE as usize;
        let g1 = (o + len as usize - 1) / GRANULE as usize;
        let (w0, b0) = (g0 >> 6, g0 & 63);
        let (w1, b1) = (g1 >> 6, g1 & 63);
        let lo = !0u64 << b0;
        let hi = !0u64 >> (63 - b1);
        if w0 == w1 {
            (self.tag_word(w0) & lo & hi).count_ones() as usize
        } else {
            let mut n = (self.tag_word(w0) & lo).count_ones();
            for w in w0 + 1..w1 {
                n += self.tag_word(w).count_ones();
            }
            n += (self.tag_word(w1) & hi).count_ones();
            n as usize
        }
    }

    /// Length (in granules, capped at `max_granules`) of the run of
    /// *untagged* granules starting at granule-aligned `addr`. Scans the
    /// packed tag words, so an all-clear 64-granule word costs one load —
    /// this is what lets the background revoker batch over untouched
    /// memory. Returns 0 for addresses outside the bank or unaligned.
    pub fn untagged_run(&self, addr: u32, max_granules: u32) -> u32 {
        if max_granules == 0 || !addr.is_multiple_of(GRANULE) || !self.contains(addr, GRANULE) {
            return 0;
        }
        let g0 = self.granule(addr);
        let limit = (g0 + max_granules as usize).min(self.granules());
        (self.scan_tagged(g0, limit).unwrap_or(limit) - g0) as u32
    }

    /// Address of the first tagged granule among the `max_granules`
    /// granules starting at the one containing `addr`, with the window
    /// clipped to the bank. Scans packed tag words like
    /// [`Sram::untagged_run`]. `None` if `addr` is outside the bank or no
    /// granule in the window is tagged.
    pub fn next_tagged(&self, addr: u32, max_granules: u32) -> Option<u32> {
        if !self.contains(addr, 1) {
            return None;
        }
        let g0 = self.granule(addr);
        let limit = (g0 + max_granules as usize).min(self.granules());
        self.scan_tagged(g0, limit).map(|g| self.granule_addr(g))
    }

    /// Address of the last tagged granule among the `max_granules`
    /// granules ending at (and including) the one containing `addr`, with
    /// the window clipped to the bank: the backward twin of
    /// [`Sram::next_tagged`]. `None` if `addr` is outside the bank or no
    /// granule in the window is tagged.
    pub fn prev_tagged(&self, addr: u32, max_granules: u32) -> Option<u32> {
        if max_granules == 0 || !self.contains(addr, 1) {
            return None;
        }
        let g1 = self.granule(addr);
        let lo = (g1 + 1).saturating_sub(max_granules as usize);
        let mut w = g1 >> 6;
        let mut masked = self.tag_word(w) & (!0u64 >> (63 - (g1 & 63)));
        loop {
            if masked != 0 {
                let hit = (w << 6) + 63 - masked.leading_zeros() as usize;
                return (hit >= lo).then(|| self.granule_addr(hit));
            }
            if w << 6 <= lo {
                return None;
            }
            w -= 1;
            masked = self.tag_word(w);
        }
    }

    /// First tagged granule index in `[g0, limit)`: the bank's one forward
    /// tag scan. An all-clear 64-granule word costs one load.
    fn scan_tagged(&self, g0: usize, limit: usize) -> Option<usize> {
        let mut g = g0;
        while g < limit {
            let masked = self.tag_word(g >> 6) & (!0u64 << (g & 63));
            if masked != 0 {
                let hit = (g & !63) + masked.trailing_zeros() as usize;
                return (hit < limit).then_some(hit);
            }
            g = (g & !63) + 64;
        }
        None
    }

    fn granule_addr(&self, g: usize) -> u32 {
        self.base + g as u32 * GRANULE
    }

    /// Number of pages in the bank.
    pub fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Number of pages currently marked dirty (written since the last
    /// snapshot/restore stamp). O(1) — a running count, not a bitmap
    /// scan.
    pub fn dirty_pages(&self) -> u32 {
        self.dirty_count
    }

    /// Is the page containing `addr` marked dirty? False outside the bank.
    pub fn page_is_dirty(&self, addr: u32) -> bool {
        if !self.contains(addr, 1) {
            return false;
        }
        let p = self.offset(addr) / PAGE_SIZE as usize;
        self.dirty[p >> 6] & (1u64 << (p & 63)) != 0
    }

    /// Architectural-content equality: same base/size and identical bytes
    /// and tags. Pages sharing a handle compare in O(1); the decoded side
    /// cache and dirty/CoW bookkeeping are derived state and deliberately
    /// excluded.
    pub fn content_eq(&self, other: &Sram) -> bool {
        self.base == other.base
            && self.len == other.len
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| Arc::ptr_eq(a, b) || (a.bytes == b.bytes && a.tags == b.tags))
    }

    fn clear_dirty(&mut self) {
        self.dirty.fill(0);
        self.dirty_count = 0;
    }

    fn same_shape(&self, other: &Sram) -> bool {
        self.base == other.base && self.len == other.len
    }

    /// Host bytes moved transferring one page: a handle under CoW, the
    /// page content when the transfer ends in a forced break.
    fn page_xfer_bytes(&self) -> u64 {
        if self.cow {
            PAGE_HANDLE_BYTES
        } else {
            PAGE_COPY_BYTES
        }
    }

    /// Captures the bank's current content into `dst`, stamping both with
    /// the content id of the captured state.
    ///
    /// When `dst` already holds this bank's last-stamped content (their
    /// content ids match), only pages dirtied since that stamp move —
    /// O(dirty). Otherwise the whole bank moves. "Moves" means handle
    /// adoption: the snapshot shares the machine's pages and the machine's
    /// next write to any of them CoW-breaks; with CoW disabled the
    /// snapshot unshares at once. Both dirty bitmaps are cleared; returns
    /// the pages/bytes actually transferred.
    pub(crate) fn capture_into(&mut self, dst: &mut Sram) -> XferCost {
        let any_dirty = self.dirty_count != 0;
        let mut cost = XferCost::default();
        if self.content != 0 && dst.content == self.content && self.same_shape(dst) {
            for wi in 0..self.dirty.len() {
                let mut w = self.dirty[wi];
                while w != 0 {
                    let p = (wi << 6) + w.trailing_zeros() as usize;
                    dst.pages[p] = Arc::clone(&self.pages[p]);
                    w &= w - 1;
                    cost.pages += 1;
                }
            }
        } else {
            dst.base = self.base;
            dst.len = self.len;
            dst.cow = self.cow;
            dst.pages.clone_from(&self.pages);
            // Snapshot banks never carry the derived side cache; drop the
            // allocation, not just the entries.
            dst.caps = Vec::new();
            dst.dirty.clear();
            dst.dirty.resize(self.dirty.len(), 0);
            cost.pages = self.num_pages();
        }
        cost.bytes = u64::from(cost.pages) * dst.page_xfer_bytes();
        dst.unshare();
        if self.content == 0 || any_dirty {
            self.content = fresh_content_id();
        }
        dst.content = self.content;
        self.clear_dirty();
        dst.clear_dirty();
        cost
    }

    /// Restores the bank to the content of `src` (a snapshot's bank).
    ///
    /// When this bank's last stamp matches `src`'s content id, every page
    /// not marked dirty is *guaranteed* unchanged since that stamp, so
    /// only dirty pages move — O(dirty). Without a lineage match the
    /// whole bank moves. Moving a page is a handle adoption (the fork
    /// cost of a fleet instance is O(pages) pointer writes, not O(bytes));
    /// with CoW disabled the bank then unshares, a deep copy of data + tag
    /// words. Clears the dirty bitmap, drops side-cache entries covering
    /// adopted pages, and adopts `src`'s content id; returns the
    /// pages/bytes actually transferred.
    ///
    /// # Panics
    ///
    /// Panics if the banks have different bases or sizes.
    pub(crate) fn restore_page_wise(&mut self, src: &Sram) -> XferCost {
        assert!(
            self.same_shape(src),
            "snapshot restore across differently-shaped SRAM banks"
        );
        let mut cost = XferCost::default();
        if src.content != 0 && self.content == src.content {
            for wi in 0..self.dirty.len() {
                let mut w = self.dirty[wi];
                while w != 0 {
                    let p = (wi << 6) + w.trailing_zeros() as usize;
                    self.pages[p] = Arc::clone(&src.pages[p]);
                    if !self.caps.is_empty() {
                        let g0 = p * PAGE_GRANULES;
                        let g1 = ((p + 1) * PAGE_GRANULES).min(self.granules());
                        self.caps[g0..g1].fill(None);
                    }
                    w &= w - 1;
                    cost.pages += 1;
                }
            }
        } else {
            self.pages.clone_from(&src.pages);
            self.caps = Vec::new();
            cost.pages = self.num_pages();
        }
        cost.bytes = u64::from(cost.pages) * self.page_xfer_bytes();
        self.unshare();
        self.content = src.content;
        self.clear_dirty();
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sram() -> Sram {
        Sram::new(0x2000_0000, 0x1000)
    }

    #[test]
    fn scalar_round_trip() {
        let mut m = sram();
        m.write_scalar(0x2000_0010, 4, 0xdead_beef).unwrap();
        assert_eq!(m.read_scalar(0x2000_0010, 4).unwrap(), 0xdead_beef);
        assert_eq!(m.read_scalar(0x2000_0010, 1).unwrap(), 0xef);
        assert_eq!(m.read_scalar(0x2000_0012, 2).unwrap(), 0xdead);
    }

    #[test]
    fn misaligned_faults() {
        let m = sram();
        assert!(matches!(
            m.read_scalar(0x2000_0001, 4),
            Err(TrapCause::Misaligned { .. })
        ));
        assert!(matches!(
            m.read_cap_word(0x2000_0004),
            Err(TrapCause::Misaligned { .. })
        ));
    }

    #[test]
    fn out_of_range_is_bus_error() {
        let m = sram();
        assert!(matches!(
            m.read_scalar(0x2000_1000, 4),
            Err(TrapCause::BusError { .. })
        ));
        assert!(matches!(
            m.read_scalar(0x1fff_fffc, 4),
            Err(TrapCause::BusError { .. })
        ));
    }

    #[test]
    fn cap_word_round_trip_with_tag() {
        let mut m = sram();
        m.write_cap_word(0x2000_0020, 0x0123_4567_89ab_cdef, true)
            .unwrap();
        assert_eq!(
            m.read_cap_word(0x2000_0020).unwrap(),
            (0x0123_4567_89ab_cdef, true)
        );
    }

    #[test]
    fn scalar_store_clears_tag() {
        let mut m = sram();
        m.write_cap_word(0x2000_0020, 42, true).unwrap();
        m.write_scalar(0x2000_0024, 1, 0xff).unwrap();
        let (_, tag) = m.read_cap_word(0x2000_0020).unwrap();
        assert!(!tag, "partial overwrite must detag the granule");
    }

    #[test]
    fn zero_range_clears_data_and_tags() {
        let mut m = sram();
        m.write_cap_word(0x2000_0040, 7, true).unwrap();
        m.write_cap_word(0x2000_0048, 7, true).unwrap();
        // Zeroing a range straddling both granules detags both, even though
        // only part of each granule's data is cleared.
        m.zero_range(0x2000_0044, 8).unwrap();
        let (w0, t0) = m.read_cap_word(0x2000_0040).unwrap();
        let (w1, t1) = m.read_cap_word(0x2000_0048).unwrap();
        assert_eq!(w0, 7); // low half untouched
        assert_eq!(w1, 0);
        assert!(!t0 && !t1);
        assert_eq!(m.count_tags(0x2000_0040, 16), 0);
    }

    #[test]
    fn zero_length_zero_range_is_noop() {
        let mut m = sram();
        m.zero_range(0x2000_0000, 0).unwrap();
        // Even at the very end of the bank.
        m.zero_range(m.base() + m.size(), 0).unwrap();
    }

    #[test]
    fn bank_ending_at_address_space_top() {
        // Regression: `end()` used to compute base + size in u32, which
        // overflows (panicking in debug builds) for a bank whose exclusive
        // end is 0x1_0000_0000.
        let mut m = Sram::new(0xffff_f000, 0x1000);
        assert_eq!(m.end(), 0x1_0000_0000);
        assert!(m.contains(0xffff_fff8, 8));
        assert!(!m.contains(0xffff_fff8, 16));
        m.write_cap_word(0xffff_fff8, 99, true).unwrap();
        assert_eq!(m.read_cap_word(0xffff_fff8).unwrap(), (99, true));
        assert_eq!(m.count_tags(0xffff_f000, 0x1000), 1);
        m.zero_range(0xffff_fff8, 8).unwrap();
        assert_eq!(m.read_cap_word(0xffff_fff8).unwrap(), (0, false));
    }

    #[test]
    fn count_tags_spanning_many_words() {
        let mut m = sram();
        // One tag every 16 granules across the whole 512-granule bank.
        for g in (0..0x1000 / GRANULE).step_by(16) {
            m.write_cap_word(0x2000_0000 + g * GRANULE, 1, true)
                .unwrap();
        }
        assert_eq!(m.count_tags(0x2000_0000, 0x1000), 32);
        assert_eq!(m.count_tags(0x2000_0000, 16 * GRANULE), 1);
        assert_eq!(m.count_tags(0x2000_0008, 16 * GRANULE), 1);
    }

    #[test]
    fn untagged_run_scans_word_boundaries() {
        let mut m = sram();
        assert_eq!(m.untagged_run(0x2000_0000, 512), 512);
        assert_eq!(m.untagged_run(0x2000_0000, 100), 100);
        // Tag granule 70 (second tag word).
        m.write_cap_word(0x2000_0000 + 70 * 8, 1, true).unwrap();
        assert_eq!(m.untagged_run(0x2000_0000, 512), 70);
        assert_eq!(m.untagged_run(0x2000_0000 + 70 * 8, 512), 0);
        assert_eq!(m.untagged_run(0x2000_0000 + 71 * 8, 512), 512 - 71);
        // Unaligned or out-of-bank addresses yield no run.
        assert_eq!(m.untagged_run(0x2000_0004, 512), 0);
        assert_eq!(m.untagged_run(0x3000_0000, 512), 0);
    }

    #[test]
    fn tag_search_window_edges() {
        let mut m = sram();
        let base = 0x2000_0000;
        let t = base + 70 * 8;
        m.write_cap_word(t, 1, true).unwrap();
        // A window of 0 sees nothing, even on a tagged granule.
        assert_eq!(m.next_tagged(t, 0), None);
        assert_eq!(m.prev_tagged(t, 0), None);
        assert_eq!(m.next_tagged(t, 1), Some(t));
        assert_eq!(m.prev_tagged(t, 1), Some(t));
        // An unaligned address searches from the granule containing it.
        assert_eq!(m.next_tagged(t + 4, 1), Some(t));
        assert_eq!(m.prev_tagged(t + 7, 1), Some(t));
        assert_eq!(m.next_tagged(t + 8 + 3, 512), None);
        // Outside the bank there is nothing to find.
        assert_eq!(m.next_tagged(base - 8, 512), None);
        assert_eq!(m.prev_tagged(base + 0x1000, 512), None);
        assert_eq!(m.next_tagged(0x3000_0000, 512), None);
        // Windows ending mid-word stop exactly at their last granule.
        assert_eq!(m.next_tagged(base, 70), None);
        assert_eq!(m.next_tagged(base, 71), Some(t));
        assert_eq!(m.prev_tagged(base + 100 * 8, 30), None);
        assert_eq!(m.prev_tagged(base + 100 * 8, 31), Some(t));
        // Windows running past either end of the bank are clipped.
        assert_eq!(m.next_tagged(base + 8, u32::MAX), Some(t));
        assert_eq!(m.prev_tagged(base + 511 * 8, u32::MAX), Some(t));
        // The first and last granule of the bank are both reachable.
        m.write_cap_word(base, 1, true).unwrap();
        m.write_cap_word(base + 511 * 8, 1, true).unwrap();
        assert_eq!(m.prev_tagged(base + 69 * 8, u32::MAX), Some(base));
        assert_eq!(m.next_tagged(t + 8, u32::MAX), Some(base + 511 * 8));
    }

    #[test]
    fn tag_search_partial_last_page() {
        // 1.5 pages: the last page's tag words extend past the bank.
        let base = 0x2000_0000;
        let mut m = Sram::new(base, PAGE_SIZE + PAGE_SIZE / 2);
        let last = base + PAGE_SIZE + PAGE_SIZE / 2 - GRANULE;
        assert_eq!(m.next_tagged(base, u32::MAX), None);
        m.write_cap_word(last, 1, true).unwrap();
        assert_eq!(m.next_tagged(base, u32::MAX), Some(last));
        assert_eq!(m.next_tagged(last, u32::MAX), Some(last));
        assert_eq!(m.next_tagged(last + GRANULE, u32::MAX), None);
        assert_eq!(m.prev_tagged(last, 1), Some(last));
        assert_eq!(m.prev_tagged(last + GRANULE, u32::MAX), None);
        assert_eq!(
            m.untagged_run(base, u32::MAX),
            PAGE_GRANULES as u32 * 3 / 2 - 1
        );
    }

    #[test]
    fn tag_search_spans_pages() {
        let base = 0x2000_0000;
        let mut m = Sram::new(base, 4 * PAGE_SIZE);
        let lo = base + 5 * GRANULE;
        let hi = base + 3 * PAGE_SIZE + 200 * GRANULE;
        m.write_cap_word(lo, 1, true).unwrap();
        m.write_cap_word(hi, 1, true).unwrap();
        assert_eq!(m.next_tagged(lo + GRANULE, u32::MAX), Some(hi));
        assert_eq!(m.prev_tagged(hi - GRANULE, u32::MAX), Some(lo));
        let gap = (hi - lo) / GRANULE;
        assert_eq!(m.next_tagged(lo + GRANULE, gap - 1), None);
        assert_eq!(m.next_tagged(lo + GRANULE, gap), Some(hi));
        assert_eq!(m.prev_tagged(hi - GRANULE, gap - 1), None);
        assert_eq!(m.prev_tagged(hi - GRANULE, gap), Some(lo));
    }

    #[test]
    fn tag_search_matches_granule_walk() {
        // Exhaustive over start granule and a spread of windows, against a
        // walk of `tag_at` over a bank with a partial last page.
        let base = 0x2000_0000;
        let mut m = Sram::new(base, PAGE_SIZE + 40 * GRANULE);
        let n = m.size() / GRANULE;
        for g in [0, 1, 63, 64, 65, 127, 300, 511, 512, 530, n - 1] {
            m.write_cap_word(base + g * GRANULE, 1, true).unwrap();
        }
        let at = |g: u32| base + g * GRANULE;
        for g in 0..n {
            for w in [0, 1, 2, 63, 64, 65, 200, 600, u32::MAX] {
                let fwd = (g..n.min(g.saturating_add(w))).find(|&k| m.tag_at(at(k)));
                assert_eq!(m.next_tagged(at(g), w), fwd.map(at), "next g={g} w={w}");
                let bwd = ((g + 1).saturating_sub(w)..=g)
                    .rev()
                    .find(|&k| m.tag_at(at(k)));
                assert_eq!(m.prev_tagged(at(g), w), bwd.map(at), "prev g={g} w={w}");
            }
        }
    }

    #[test]
    fn side_cache_returns_written_capability() {
        use cheriot_cap::Capability;
        let mut m = sram();
        let c = Capability::root_mem_rw()
            .with_address(0x2000_0100)
            .set_bounds(64)
            .unwrap();
        m.write_cap(0x2000_0010, c).unwrap();
        let back = m.read_cap(0x2000_0010).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.bounds(), c.bounds());
        // The raw word view agrees with the cached view.
        assert_eq!(m.read_cap_word(0x2000_0010).unwrap(), (c.to_word(), true));
    }

    #[test]
    fn dirty_tracking_marks_exactly_the_touched_pages() {
        let mut m = Sram::new(0x2000_0000, 0x4000); // 4 pages
        let mut snap = Sram::new(0x2000_0000, 0x4000);
        m.capture_into(&mut snap);
        assert_eq!(m.dirty_pages(), 0);
        m.write_scalar(0x2000_0004, 1, 0xaa).unwrap();
        assert_eq!(m.dirty_pages(), 1);
        assert!(m.page_is_dirty(0x2000_0004));
        assert!(!m.page_is_dirty(0x2000_1000));
        m.write_cap_word(0x2000_2000, 1, true).unwrap();
        assert_eq!(m.dirty_pages(), 2);
        // A zero spanning the page-1/page-2 boundary dirties both.
        m.zero_range(0x2000_1ff8, 16).unwrap();
        assert_eq!(m.dirty_pages(), 3);
        assert!(m.page_is_dirty(0x2000_1ff8));
    }

    #[test]
    fn dirty_tracking_never_under_reports() {
        // Restore correctness under targeted single-page stores: every
        // store path must mark its page, or the page-wise restore would
        // silently keep the new bytes. Restoring after each kind of store
        // must reproduce the snapshot content exactly.
        let c = Capability::root_mem_rw()
            .with_address(0x2000_0100)
            .set_bounds(64)
            .unwrap();
        type Store = Box<dyn Fn(&mut Sram)>;
        let stores: Vec<Store> = vec![
            Box::new(|s| s.write_scalar(0x2000_0abc, 4, 0xdead_beef).unwrap()),
            Box::new(|s| s.write_scalar(0x2000_1fff, 1, 0x55).unwrap()),
            Box::new(|s| s.write_cap_word(0x2000_2ff8, 0x0123, true).unwrap()),
            Box::new(move |s| s.write_cap(0x2000_3008, c).unwrap()),
            Box::new(|s| s.zero_range(0x2000_0ff0, 0x20).unwrap()),
            Box::new(|s| {
                s.write_bytes(0x2000_0ffc, &[1, 2, 3, 4, 5, 6, 7, 8])
                    .unwrap()
            }),
        ];
        for store in &stores {
            let mut m = Sram::new(0x2000_0000, 0x4000);
            // Pre-populate so zeroing/overwrites actually change content.
            for a in (0x2000_0000u32..0x2000_4000).step_by(64) {
                m.write_cap_word(a, u64::from(a), true).unwrap();
            }
            let mut snap = Sram::new(0x2000_0000, 0x4000);
            m.capture_into(&mut snap);
            store(&mut m);
            let dirty = m.dirty_pages();
            assert!(dirty > 0, "store path failed to mark any page");
            assert_eq!(m.restore_page_wise(&snap).pages, dirty);
            assert!(m.content_eq(&snap), "restore missed a dirtied page");
        }
    }

    #[test]
    fn page_wise_restore_copies_only_dirty_pages() {
        let mut m = Sram::new(0x2000_0000, 0x8000); // 8 pages
        m.write_cap_word(0x2000_4000, 7, true).unwrap();
        let mut snap = Sram::new(0x2000_0000, 0x8000);
        let first = m.capture_into(&mut snap);
        assert_eq!(
            first.pages, 8,
            "first capture into a fresh bank is a full transfer"
        );
        m.write_scalar(0x2000_0000, 4, 1).unwrap();
        m.write_scalar(0x2000_7ffc, 4, 2).unwrap();
        assert_eq!(m.restore_page_wise(&snap).pages, 2);
        assert!(m.content_eq(&snap));
        assert!(m.tag_at(0x2000_4000));
        // Re-capture with no divergence transfers nothing, keeps lineage.
        assert_eq!(m.capture_into(&mut snap).pages, 0);
        // A foreign bank has no lineage: full transfer.
        let mut other = Sram::new(0x2000_0000, 0x8000);
        assert_eq!(other.restore_page_wise(&snap).pages, 8);
        assert!(other.content_eq(&snap));
    }

    #[test]
    fn side_cache_coherent_after_page_wise_restore() {
        let c = Capability::root_mem_rw()
            .with_address(0x2000_0040)
            .set_bounds(32)
            .unwrap();
        let mut m = Sram::new(0x2000_0000, 0x2000);
        m.write_cap(0x2000_0040, c).unwrap();
        let mut snap = Sram::new(0x2000_0000, 0x2000);
        m.capture_into(&mut snap);
        // Overwrite the capability, then restore: the read-back must be
        // the snapshot's capability, not the overwrite or a stale decode.
        m.write_cap_word(0x2000_0040, 0xffff_ffff_ffff_ffff, false)
            .unwrap();
        m.restore_page_wise(&snap);
        let back = m.read_cap(0x2000_0040).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.bounds(), c.bounds());
    }

    #[test]
    fn side_cache_invalidated_by_scalar_and_raw_writes() {
        use cheriot_cap::Capability;
        let mut m = sram();
        let c = Capability::root_mem_rw()
            .with_address(0x2000_0200)
            .set_bounds(32)
            .unwrap();
        m.write_cap(0x2000_0040, c).unwrap();
        // Scalar overwrite: tag drops, and the read-back reflects the new
        // bytes, not the stale cached decode.
        m.write_scalar(0x2000_0040, 4, 0x1234_5678).unwrap();
        let back = m.read_cap(0x2000_0040).unwrap();
        assert!(!back.tag());
        assert_eq!(back.to_word() as u32, 0x1234_5678);
        // Raw word write with tag repopulates lazily on the next read.
        m.write_cap_word(0x2000_0040, c.to_word(), true).unwrap();
        let again = m.read_cap(0x2000_0040).unwrap();
        assert_eq!(again, c);
        assert_eq!(again.bounds(), c.bounds());
    }

    // --- CoW page-store behaviour -----------------------------------------

    #[test]
    fn fresh_bank_shares_one_zero_page_until_written() {
        let mut m = Sram::new(0x2000_0000, 0x4000); // 4 pages
        assert_eq!(m.shared_pages(), 4, "all slots share the zero page");
        m.write_scalar(0x2000_1004, 4, 7).unwrap();
        assert_eq!(m.shared_pages(), 3, "first write unshared its page");
        assert_eq!(m.cow_stats().breaks, 1);
        assert_eq!(m.cow_stats().bytes_copied, PAGE_COPY_BYTES);
        // Writing the same page again is barrier-cheap: no further break.
        m.write_scalar(0x2000_1008, 4, 8).unwrap();
        assert_eq!(m.cow_stats().breaks, 1);
    }

    #[test]
    fn capture_shares_pages_and_write_breaks_them() {
        let mut m = Sram::new(0x2000_0000, 0x4000);
        m.write_cap_word(0x2000_2000, 99, true).unwrap();
        let mut snap = Sram::new(0x2000_0000, 0x4000);
        let cost = m.capture_into(&mut snap);
        assert_eq!(cost.pages, 4);
        assert_eq!(cost.bytes, 4 * PAGE_HANDLE_BYTES, "capture is handle-cost");
        // Machine and snapshot now share every page.
        assert_eq!(m.shared_pages(), 4);
        let breaks_before = m.cow_stats().breaks;
        m.write_scalar(0x2000_2004, 4, 1).unwrap();
        assert_eq!(m.cow_stats().breaks, breaks_before + 1);
        // The snapshot still sees the captured content.
        assert_eq!(snap.read_cap_word(0x2000_2000).unwrap(), (99, true));
        assert_eq!(snap.read_scalar(0x2000_2004, 4).unwrap(), 0);
    }

    #[test]
    fn forked_siblings_are_isolated() {
        let mut image = Sram::new(0x2000_0000, 0x4000);
        for a in (0x2000_0000u32..0x2000_4000).step_by(256) {
            image.write_cap_word(a, u64::from(a), true).unwrap();
        }
        let mut snap = Sram::new(0x2000_0000, 0x4000);
        image.capture_into(&mut snap);
        let mut a = Sram::new(0x2000_0000, 0x4000);
        let mut b = Sram::new(0x2000_0000, 0x4000);
        assert_eq!(a.restore_page_wise(&snap).bytes, 4 * PAGE_HANDLE_BYTES);
        b.restore_page_wise(&snap);
        assert!(a.content_eq(&b));
        // A's writes must not leak into B or the snapshot.
        a.write_scalar(0x2000_0100, 4, 0xdead_beef).unwrap();
        a.zero_range(0x2000_1000, 64).unwrap();
        assert!(b.content_eq(&snap));
        assert_eq!(b.read_scalar(0x2000_0100, 4).unwrap(), 0x2000_0100);
        assert!(b.tag_at(0x2000_1000));
        assert_eq!(a.read_scalar(0x2000_0100, 4).unwrap(), 0xdead_beef);
    }

    #[test]
    fn no_cow_mode_keeps_pages_unique_and_copies_bytes() {
        let mut m = Sram::new(0x2000_0000, 0x4000);
        m.set_cow(false);
        assert_eq!(m.shared_pages(), 0, "set_cow(false) materializes pages");
        m.write_cap_word(0x2000_0000, 5, true).unwrap();
        assert_eq!(m.cow_stats().breaks, 0, "unique pages never break");
        let mut snap = Sram::new(0x2000_0000, 0x4000);
        let cost = m.capture_into(&mut snap);
        assert_eq!(
            cost.bytes,
            4 * PAGE_COPY_BYTES,
            "no-cow capture deep-copies"
        );
        assert_eq!(m.shared_pages(), 0);
        assert!(!snap.cow_enabled(), "snapshot adopts the bank's mode");
        m.write_scalar(0x2000_0008, 4, 1).unwrap();
        let cost = m.restore_page_wise(&snap);
        assert_eq!(cost.pages, 1);
        assert_eq!(cost.bytes, PAGE_COPY_BYTES, "tag bytes are accounted");
        assert!(m.content_eq(&snap));
    }

    #[test]
    fn cow_and_no_cow_banks_stay_content_identical() {
        let ops: &[fn(&mut Sram)] = &[
            |s| s.write_scalar(0x2000_0abc, 4, 0xdead_beef).unwrap(),
            |s| s.write_cap_word(0x2000_1ff8, 0x0123, true).unwrap(),
            |s| s.zero_range(0x2000_0ff0, 0x20).unwrap(),
            |s| s.write_bytes(0x2000_2ffa, &[9; 12]).unwrap(),
        ];
        let mut a = Sram::new(0x2000_0000, 0x4000);
        let mut b = Sram::new(0x2000_0000, 0x4000);
        b.set_cow(false);
        let (mut sa, mut sb) = (
            Sram::new(0x2000_0000, 0x4000),
            Sram::new(0x2000_0000, 0x4000),
        );
        a.capture_into(&mut sa);
        b.capture_into(&mut sb);
        for op in ops {
            op(&mut a);
            op(&mut b);
            assert!(a.content_eq(&b));
        }
        a.restore_page_wise(&sa);
        b.restore_page_wise(&sb);
        assert!(a.content_eq(&b), "restores agree across modes");
    }

    #[test]
    fn running_dirty_count_matches_bitmap() {
        let mut m = Sram::new(0x2000_0000, 0x8000);
        let mut snap = Sram::new(0x2000_0000, 0x8000);
        m.capture_into(&mut snap);
        for (i, a) in (0x2000_0000u32..0x2000_8000).step_by(4096).enumerate() {
            m.write_scalar(a, 4, 1).unwrap();
            m.write_scalar(a + 8, 4, 2).unwrap(); // same page: no recount
            let popcount: u32 = m.dirty.iter().map(|w| w.count_ones()).sum();
            assert_eq!(m.dirty_pages(), popcount);
            assert_eq!(m.dirty_pages(), i as u32 + 1);
        }
        m.restore_page_wise(&snap);
        assert_eq!(m.dirty_pages(), 0);
    }

    #[test]
    fn unique_resident_bytes_tracks_breaks() {
        let mut m = Sram::new(0x2000_0000, 0x4000);
        let mut snap = Sram::new(0x2000_0000, 0x4000);
        m.capture_into(&mut snap);
        assert_eq!(m.unique_resident_bytes(), 0, "fully shared after capture");
        m.write_scalar(0x2000_0000, 4, 1).unwrap();
        assert_eq!(m.unique_resident_bytes(), PAGE_COPY_BYTES);
    }

    #[test]
    fn clone_shares_under_cow_and_isolates_writes() {
        let mut m = Sram::new(0x2000_0000, 0x2000);
        m.write_cap_word(0x2000_0000, 7, true).unwrap();
        let clone = m.clone();
        assert!(m.content_eq(&clone));
        m.write_scalar(0x2000_0004, 4, 0xff).unwrap();
        assert_eq!(clone.read_scalar(0x2000_0004, 4).unwrap(), 0);
        assert!(clone.tag_at(0x2000_0000));
    }
}
