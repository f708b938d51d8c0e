//! A fixed-capacity, page-granular buffer pool over the disk tier's
//! partition blobs.
//!
//! Tiered serving reads column payloads from the partition blobs of a
//! generation's `gen-N/segment` in fixed-size **pages** — the
//! block-transfer unit of the external-memory cost model. The pool caches
//! pages keyed by `(table, generation, partition, page)` with CLOCK
//! (second-chance) eviction, so a warm working set is served from memory
//! while cold reads hit the disk, and both are *counted*: hit/miss/eviction
//! totals plus cold (disk) and cached (pool) byte volumes feed the
//! cold-vs-warm α̂ split in the serving reports.
//!
//! Pages are cut from each blob on its own, not from the segment: page `p`
//! of a blob is bytes `[p·P, min((p + 1)·P, length))` of that blob, read at
//! `blob offset + p·P` through the segment handle the [`Generation`] keeps
//! open ([`BufferPool::read_blob`]). The geometry — which pages exist, how
//! long the last one is, what a read of a column's extent costs — is that
//! of one file per partition; sharing a file only removes the `open` +
//! `fstat` + `close` each cold read used to pay.
//!
//! Integration with generation pinning: every read takes the
//! [`Generation`] pin itself, so a page can only be fetched while its
//! backing segment is alive, and page keys carry the generation number,
//! so pages of a superseded generation can never satisfy a read against
//! its successor. [`BufferPool::invalidate_generation`] drops a retired
//! generation's pages eagerly (the engine calls it at publish time) so a
//! garbage-collected generation does not squat in the pool. Within one
//! multi-page fetch the touched frames are **pinned** against eviction and
//! unpinned when the range is assembled.

use crate::error::{Result, StorageError};
use crate::tiered::Generation;
use bytes::Bytes;
use oreo_obs::{EventKind, EventSink, NullSink};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default page size: 64 KiB, a common buffer-manager block size.
pub const DEFAULT_PAGE_BYTES: usize = 64 * 1024;

/// Default pool capacity: 64 MiB.
pub const DEFAULT_CAPACITY_BYTES: u64 = 64 * 1024 * 1024;

/// Sizing knobs for a [`BufferPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferPoolConfig {
    /// Total budget for resident pages, in bytes. The pool holds at most
    /// `max(1, capacity_bytes / page_bytes)` pages.
    pub capacity_bytes: u64,
    /// Page size in bytes (the unit of I/O and eviction).
    pub page_bytes: usize,
}

impl Default for BufferPoolConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: DEFAULT_CAPACITY_BYTES,
            page_bytes: DEFAULT_PAGE_BYTES,
        }
    }
}

impl BufferPoolConfig {
    fn max_pages(&self) -> usize {
        ((self.capacity_bytes / self.page_bytes.max(1) as u64) as usize).max(1)
    }
}

/// Identity of one cached page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct PageKey {
    /// Table (tenant) the page's generation belongs to — one shared pool
    /// can serve N tenants whose generation numbers collide.
    table: u32,
    /// On-disk generation number the page belongs to.
    generation: u64,
    /// Partition (blob) index within the generation.
    file: u32,
    /// Page number within the blob (`offset / page_bytes`).
    page: u32,
}

impl PageKey {
    fn group(&self) -> (u32, u64) {
        (self.table, self.generation)
    }
}

#[derive(Debug)]
struct Frame {
    key: PageKey,
    data: Bytes,
    /// CLOCK reference bit: set on every hit, cleared by the sweep hand.
    referenced: bool,
    /// Readers currently assembling a range from this frame; pinned frames
    /// are never evicted.
    pins: u32,
}

#[derive(Debug, Default)]
struct PoolInner {
    map: HashMap<PageKey, usize>,
    frames: Vec<Option<Frame>>,
    free: Vec<usize>,
    hand: usize,
    /// Resident slots per `(table, generation)`, so invalidating a retired
    /// generation drops exactly its pages instead of scanning the whole
    /// capacity.
    groups: HashMap<(u32, u64), HashSet<usize>>,
}

impl PoolInner {
    /// Insert `key → slot` into both the page map and the group index.
    fn link(&mut self, key: PageKey, slot: usize) {
        self.map.insert(key, slot);
        self.groups.entry(key.group()).or_default().insert(slot);
    }

    /// Remove `key` (resident in `slot`) from both indexes.
    fn unlink(&mut self, key: &PageKey, slot: usize) {
        self.map.remove(key);
        if let Some(slots) = self.groups.get_mut(&key.group()) {
            slots.remove(&slot);
            if slots.is_empty() {
                self.groups.remove(&key.group());
            }
        }
    }
}

/// Where a miss reads a page's bytes from: the byte string the page loop's
/// offsets and page numbers are relative to.
enum PageSource<'a> {
    /// `len` bytes starting at `base` of an already-open file — one
    /// partition's blob in a generation's segment.
    Open {
        file: &'a fs::File,
        base: u64,
        len: u64,
    },
    /// A whole file, opened (and measured) on the first miss.
    Path {
        path: &'a Path,
        opened: Option<(fs::File, u64)>,
    },
}

impl PageSource<'_> {
    /// Page `page` of the source: one positioned read into a buffer of
    /// exactly the page's length (the last page is short, a page past the
    /// end empty — never bytes beyond the source).
    fn read_page(&mut self, page: u32, page_bytes: u64) -> Result<Vec<u8>> {
        let (file, base, len) = match self {
            PageSource::Open { file, base, len } => (*file, *base, *len),
            PageSource::Path { path, opened } => {
                let (file, len) = match opened {
                    Some(opened) => opened,
                    None => {
                        let file = fs::File::open(path)?;
                        let len = file.metadata()?.len();
                        opened.insert((file, len))
                    }
                };
                (&*file, 0, *len)
            }
        };
        let start = u64::from(page) * page_bytes;
        let mut data = vec![0u8; len.saturating_sub(start).min(page_bytes) as usize];
        file.read_exact_at(&mut data, base + start)?;
        Ok(data)
    }
}

/// Counters snapshot of a [`BufferPool`] (monotone over the pool's life).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that went to disk.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Bytes read from disk (page-granular, the cold volume).
    pub cold_bytes: u64,
    /// Bytes served from resident pages (the cached volume).
    pub cached_bytes: u64,
    /// Pages invalidated because their generation was superseded.
    pub invalidated: u64,
    /// Invalidation *calls* ([`BufferPool::invalidate_generation`]
    /// invocations, whether or not any page was resident).
    pub invalidations: u64,
    /// Pages resident when the snapshot was taken.
    pub pages_resident: u64,
    /// Configured capacity in bytes.
    pub capacity_bytes: u64,
    /// Configured page size in bytes.
    pub page_bytes: u64,
}

impl PoolStats {
    /// Hits over total page requests (0.0 before any request).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Byte accounting of one ranged read through the pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Page bytes fetched from disk for this read.
    pub cold_bytes: u64,
    /// Page bytes served from the pool for this read.
    pub cached_bytes: u64,
}

/// A fixed-capacity page cache over generation partition blobs with CLOCK
/// eviction. See the [module docs](self) for the design.
pub struct BufferPool {
    config: BufferPoolConfig,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    cold_bytes: AtomicU64,
    cached_bytes: AtomicU64,
    invalidated: AtomicU64,
    invalidations: AtomicU64,
    /// Eviction/invalidation event sink ([`NullSink`] unless the owner
    /// wired a journal in via [`BufferPool::with_event_sink`]).
    sink: Arc<dyn EventSink>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl BufferPool {
    /// An empty pool with the given sizing.
    pub fn new(config: BufferPoolConfig) -> Self {
        assert!(config.page_bytes > 0, "page size must be positive");
        Self {
            config,
            inner: Mutex::new(PoolInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            cold_bytes: AtomicU64::new(0),
            cached_bytes: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            sink: Arc::new(NullSink),
        }
    }

    /// Route eviction and invalidation events into `sink` (builder form,
    /// applied before the pool is shared).
    pub fn with_event_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// The pool's sizing configuration.
    pub fn config(&self) -> BufferPoolConfig {
        self.config
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> PoolStats {
        let pages_resident = {
            let inner = self.inner.lock().expect("buffer pool poisoned");
            inner.map.len() as u64
        };
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            cold_bytes: self.cold_bytes.load(Ordering::Relaxed),
            cached_bytes: self.cached_bytes.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            pages_resident,
            capacity_bytes: self.config.capacity_bytes,
            page_bytes: self.config.page_bytes as u64,
        }
    }

    /// Read `offset..offset + len` of partition `partition`'s blob in the
    /// pinned `generation`'s segment through the pool, returning the
    /// assembled bytes plus this read's cold/cached byte split. Misses are
    /// positioned reads through the handle the generation already holds.
    ///
    /// Offsets, page numbers and page lengths are relative to the blob: page
    /// `p` is bytes `[p·P, min((p + 1)·P, blob length))` of it, so the
    /// blob's last page is short and no page ever holds a byte of the
    /// neighbouring blob — the geometry (and so every byte count) of one
    /// file per partition.
    ///
    /// The generation pin in the signature is the safety contract: the
    /// segment cannot be garbage-collected while the caller holds it, and
    /// the pages cached here are keyed under `generation.number()` so a
    /// later generation can never be served stale bytes.
    pub fn read_blob(
        &self,
        generation: &Generation,
        partition: u32,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, ReadStats)> {
        let (base, blob_len) = generation.blob(partition).ok_or_else(|| {
            StorageError::Corrupt(format!(
                "generation {} has no partition {partition}",
                generation.number()
            ))
        })?;
        let source = PageSource::Open {
            file: generation.segment(),
            base,
            len: blob_len,
        };
        self.read_pages(generation, partition, source, offset, len)
    }

    /// Read `offset..offset + len` of the file at `path` through the pool,
    /// caching its pages as file `file` of the pinned `generation`. A thin
    /// wrapper over the page loop behind [`BufferPool::read_blob`]: the
    /// source is the whole file, opened by path on the first miss, instead
    /// of a blob inside the generation's open segment.
    pub fn read_range(
        &self,
        generation: &Generation,
        file: u32,
        path: &Path,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, ReadStats)> {
        let source = PageSource::Path { path, opened: None };
        self.read_pages(generation, file, source, offset, len)
    }

    /// The one page loop: assemble `offset..offset + len` of `source` from
    /// pages keyed `(generation, file, page)`, pinning the touched frames
    /// until the range is copied out.
    fn read_pages(
        &self,
        generation: &Generation,
        file: u32,
        mut source: PageSource<'_>,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, ReadStats)> {
        let mut out = vec![0u8; len as usize];
        let mut stats = ReadStats::default();
        if len == 0 {
            return Ok((out, stats));
        }
        let page_bytes = self.config.page_bytes as u64;
        let first = offset / page_bytes;
        let last = (offset + len - 1) / page_bytes;
        let mut pinned: Vec<PageKey> = Vec::with_capacity((last - first + 1) as usize);
        let result = (|| -> Result<()> {
            for page in first..=last {
                let key = PageKey {
                    table: generation.table(),
                    generation: generation.number(),
                    file,
                    page: u32::try_from(page).map_err(|_| {
                        StorageError::Corrupt(format!("page index {page} exceeds u32"))
                    })?,
                };
                // A retired generation's pages were invalidated at publish
                // time; admitting new ones here would let them squat in
                // the pool until process exit (nothing invalidates the
                // generation a second time). In-flight readers of retired
                // generations read through without caching.
                let cacheable = !generation.is_retired();
                let (data, cold, inserted) = self.fetch_page(key, &mut source, cacheable)?;
                if inserted {
                    pinned.push(key);
                }
                if cold {
                    stats.cold_bytes += data.len() as u64;
                } else {
                    stats.cached_bytes += data.len() as u64;
                }
                // Copy the overlap of this page into the output range.
                let page_start = page * page_bytes;
                let copy_from = offset.max(page_start);
                let copy_to = (offset + len).min(page_start + page_bytes);
                if page_start + (data.len() as u64) < copy_to {
                    return Err(StorageError::Corrupt(format!(
                        "page {page} of file {file} too short for range {offset}+{len}"
                    )));
                }
                let src = &data[(copy_from - page_start) as usize..(copy_to - page_start) as usize];
                out[(copy_from - offset) as usize..(copy_to - offset) as usize]
                    .copy_from_slice(src);
            }
            Ok(())
        })();
        // Unpin everything we touched, whether or not assembly succeeded,
        // then settle back under capacity (a single read larger than the
        // whole pool over-commits transiently; at rest the bound holds).
        {
            let mut inner = self.inner.lock().expect("buffer pool poisoned");
            for key in &pinned {
                if let Some(&slot) = inner.map.get(key) {
                    if let Some(frame) = inner.frames[slot].as_mut() {
                        frame.pins = frame.pins.saturating_sub(1);
                    }
                }
            }
            self.enforce_capacity(&mut inner);
        }
        result?;
        self.cold_bytes
            .fetch_add(stats.cold_bytes, Ordering::Relaxed);
        self.cached_bytes
            .fetch_add(stats.cached_bytes, Ordering::Relaxed);
        Ok((out, stats))
    }

    /// Fetch one page, through the cache or from `source`. The returned
    /// flags are `(data, cold, pinned)`: `cold` is `true` when the page
    /// came from disk (a miss); `pinned` is `true` when the page sits in a
    /// frame the caller must unpin (`cacheable: false` misses read
    /// through without touching the cache).
    fn fetch_page(
        &self,
        key: PageKey,
        source: &mut PageSource<'_>,
        cacheable: bool,
    ) -> Result<(Bytes, bool, bool)> {
        // Fast path: cache hit.
        {
            let mut inner = self.inner.lock().expect("buffer pool poisoned");
            if let Some(&slot) = inner.map.get(&key) {
                let frame = inner.frames[slot].as_mut().expect("mapped frame");
                frame.referenced = true;
                frame.pins += 1;
                let data = frame.data.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((data, false, true));
            }
        }
        // Miss: read the page from disk without holding the pool lock.
        let data = Bytes::from(source.read_page(key.page, self.config.page_bytes as u64)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if !cacheable {
            return Ok((data, true, false));
        }

        // Insert (another thread may have raced us; keep whichever landed).
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        if let Some(&slot) = inner.map.get(&key) {
            let frame = inner.frames[slot].as_mut().expect("mapped frame");
            frame.referenced = true;
            frame.pins += 1;
            return Ok((frame.data.clone(), true, true));
        }
        let slot = self.allocate_slot(&mut inner);
        inner.link(key, slot);
        inner.frames[slot] = Some(Frame {
            key,
            data: data.clone(),
            referenced: true,
            pins: 1,
        });
        Ok((data, true, true))
    }

    /// Find a slot for a new frame: reuse a free slot, evict with CLOCK, or
    /// (when every frame is pinned) grow past capacity rather than fail.
    fn allocate_slot(&self, inner: &mut PoolInner) -> usize {
        if let Some(slot) = inner.free.pop() {
            return slot;
        }
        if inner.frames.len() < self.config.max_pages() {
            inner.frames.push(None);
            return inner.frames.len() - 1;
        }
        // CLOCK sweep: clear reference bits for one revolution; evict the
        // first unreferenced, unpinned frame. Two revolutions guarantee a
        // victim unless everything is pinned.
        let n = inner.frames.len();
        for _ in 0..2 * n {
            let slot = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            match inner.frames[slot].as_mut() {
                Some(frame) if frame.pins > 0 => continue,
                Some(frame) if frame.referenced => frame.referenced = false,
                Some(frame) => {
                    let key = frame.key;
                    inner.unlink(&key, slot);
                    inner.frames[slot] = None;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    if self.sink.enabled() {
                        self.sink.emit(EventKind::PoolEvicted {
                            generation: key.generation,
                            file: key.file,
                            page: key.page,
                        });
                    }
                    return slot;
                }
                None => return slot,
            }
        }
        // Everything pinned (capacity smaller than one in-flight read):
        // over-commit rather than deadlock.
        inner.frames.push(None);
        inner.frames.len() - 1
    }

    /// Evict unpinned frames until the resident count is back within the
    /// configured page budget (CLOCK order). Frames pinned by concurrent
    /// reads are skipped; they are re-checked by whichever read unpins
    /// them last.
    fn enforce_capacity(&self, inner: &mut PoolInner) {
        let max = self.config.max_pages();
        let n = inner.frames.len();
        if n == 0 {
            return;
        }
        let mut sweeps = 0;
        while inner.map.len() > max && sweeps < 2 * n {
            sweeps += 1;
            let slot = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            match inner.frames[slot].as_mut() {
                Some(frame) if frame.pins > 0 => continue,
                Some(frame) if frame.referenced => frame.referenced = false,
                Some(frame) => {
                    let key = frame.key;
                    inner.unlink(&key, slot);
                    inner.frames[slot] = None;
                    inner.free.push(slot);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    if self.sink.enabled() {
                        self.sink.emit(EventKind::PoolEvicted {
                            generation: key.generation,
                            file: key.file,
                            page: key.page,
                        });
                    }
                }
                None => continue,
            }
        }
    }

    /// Drop every cached page of `table`'s `generation` (called when the
    /// generation is superseded, so retired layouts stop occupying pool
    /// capacity and a GC'd directory leaves nothing behind). Pages pinned
    /// by in-flight reads stay alive through their readers' `Bytes`
    /// handles; the frames themselves are removed.
    ///
    /// Cost is proportional to the pages actually dropped (the pool keeps a
    /// per-`(table, generation)` slot index), not to the pool's capacity —
    /// a multi-tenant engine invalidates on every per-tenant publish, so an
    /// O(capacity) scan here would tax every tenant for each one's churn.
    pub fn invalidate_generation(&self, table: u32, generation: u64) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        let Some(slots) = inner.groups.remove(&(table, generation)) else {
            return;
        };
        let mut pages = 0u64;
        for slot in slots {
            if let Some(frame) = inner.frames[slot].take() {
                inner.map.remove(&frame.key);
                inner.free.push(slot);
                self.invalidated.fetch_add(1, Ordering::Relaxed);
                pages += 1;
            }
        }
        if pages > 0 && self.sink.enabled() {
            self.sink
                .emit(EventKind::PoolInvalidated { generation, pages });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::TableSnapshot;
    use crate::table::{Table, TableBuilder};
    use crate::tiered::TieredStore;
    use oreo_query::{Atom, ColumnType, Predicate, Scalar, Schema};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmproot(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oreo-bufpool-{tag}-{}-{}",
            std::process::id(),
            rand::random::<u32>()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn table(n: i64) -> Table {
        let s = Arc::new(Schema::from_pairs([
            ("v", ColumnType::Int),
            ("tag", ColumnType::Str),
        ]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..n {
            b.push_row(&[
                Scalar::Int(i),
                Scalar::from(["a", "b", "c", "d"][(i % 4) as usize]),
            ]);
        }
        b.finish()
    }

    fn snap(t: &Table, k: usize) -> TableSnapshot {
        let n = t.num_rows() as u32;
        let per = n.div_ceil(k as u32).max(1);
        let assignment: Vec<u32> = (0..n).map(|r| (r / per).min(k as u32 - 1)).collect();
        TableSnapshot::build(t, &assignment, k, 0, "range")
    }

    fn between(lo: i64, hi: i64) -> Predicate {
        Predicate::new(vec![Atom::Between {
            col: 0,
            low: Scalar::Int(lo),
            high: Scalar::Int(hi),
        }])
    }

    #[test]
    fn hits_and_misses_are_counted_and_rereads_hit() {
        let t = table(2_000);
        let root = tmproot("counters");
        let mut s = snap(&t, 4);
        let (store, _) = TieredStore::create(&root, &mut s).unwrap();
        let pool = BufferPool::new(BufferPoolConfig {
            capacity_bytes: 1 << 20,
            page_bytes: 256,
        });
        let pred = between(0, 499);
        let cold = s.scan_pooled(&pred, &pool).unwrap();
        assert!(cold.io_cold_bytes > 0, "first scan reads from disk");
        assert_eq!(cold.io_cached_bytes, 0);
        let warm = s.scan_pooled(&pred, &pool).unwrap();
        assert_eq!(warm.matches, cold.matches);
        assert_eq!(warm.io_cold_bytes, 0, "second scan is fully cached");
        assert!(warm.io_cached_bytes > 0);
        let stats = pool.stats();
        assert!(stats.hits > 0 && stats.misses > 0);
        assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);
        assert_eq!(stats.evictions, 0, "capacity fits the working set");
        // matches agree with the in-memory scan
        assert_eq!(cold.matches, s.scan(&pred).matches);
        drop(store);
        drop(s);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn tiny_capacity_evicts_with_clock_and_stays_correct() {
        let t = table(4_000);
        let root = tmproot("evict");
        let mut s = snap(&t, 4);
        let (store, _) = TieredStore::create(&root, &mut s).unwrap();
        // 2 pages of 128 bytes: far smaller than any column payload, so
        // every multi-page read over-commits, evicts, and re-reads.
        let pool = BufferPool::new(BufferPoolConfig {
            capacity_bytes: 256,
            page_bytes: 128,
        });
        for lo in [0i64, 1_000, 2_000, 0, 1_000] {
            let pred = between(lo, lo + 900);
            let scan = s.scan_pooled(&pred, &pool).unwrap();
            assert_eq!(scan.matches, s.scan(&pred).matches, "lo={lo}");
        }
        let stats = pool.stats();
        assert!(stats.evictions > 0, "tiny pool must evict");
        assert!(
            stats.pages_resident * stats.page_bytes <= stats.capacity_bytes,
            "pool settled back under capacity: {} pages of {}",
            stats.pages_resident,
            stats.page_bytes
        );
        drop(store);
        drop(s);
        fs::remove_dir_all(&root).unwrap();
    }

    /// The satellite's GC-safety test: pages of a superseded generation are
    /// never served to its successor (keys carry the generation number) and
    /// are dropped from the pool when the generation is invalidated, so a
    /// garbage-collected directory leaves nothing behind.
    #[test]
    fn superseded_generation_pages_never_serve_after_gc() {
        let t = table(3_000);
        let root = tmproot("gc");
        let mut s1 = snap(&t, 2);
        let (store, _) = TieredStore::create(&root, &mut s1).unwrap();
        let pool = BufferPool::new(BufferPoolConfig {
            capacity_bytes: 1 << 20,
            page_bytes: 512,
        });
        let pred = between(100, 2_500);
        let expected = s1.scan(&pred).matches;
        let g1 = s1.scan_pooled(&pred, &pool).unwrap();
        assert_eq!(g1.matches, expected);
        assert!(pool.stats().pages_resident > 0);

        // Publish generation 2 with a different partitioning, invalidate
        // gen 1's pages (what the engine does at publish), then GC gen 1.
        let mut s2 = snap(&t, 3);
        let receipt = store.publish(&mut s2).unwrap();
        pool.invalidate_generation(0, receipt.generation - 1);
        assert_eq!(pool.stats().pages_resident, 0, "gen-1 pages dropped");
        assert!(pool.stats().invalidated > 0);
        assert_eq!(pool.stats().invalidations, 1);
        // An in-flight reader of the retired generation reads through
        // without re-admitting its pages — nothing invalidates gen 1 a
        // second time, so re-admission would squat until process exit.
        let retired = s1.scan_pooled(&pred, &pool).unwrap();
        assert_eq!(retired.matches, expected);
        assert!(retired.io_cold_bytes > 0);
        assert_eq!(
            pool.stats().pages_resident,
            0,
            "retired generation must not re-enter the pool"
        );
        drop(s1); // last pin: gen-000001 is garbage-collected
        assert!(!root.join("gen-000001").exists());

        // Scans against gen 2 must miss (cold) and return gen 2's truth —
        // nothing cached under gen 1 can satisfy them.
        let g2 = s2.scan_pooled(&pred, &pool).unwrap();
        assert_eq!(g2.matches, expected);
        assert!(g2.io_cold_bytes > 0, "gen 2 pages were not pre-cached");
        drop(store);
        drop(s2);
        fs::remove_dir_all(&root).unwrap();
    }

    /// Two tenants share one pool; their generation numbers collide (both
    /// serve gen 1) yet their pages never mix, and invalidating one
    /// tenant's generation drops exactly that tenant's pages.
    #[test]
    fn shared_pool_keys_pages_per_table_and_invalidates_per_tenant() {
        let t = table(2_000);
        let root_a = tmproot("tenant-a");
        let root_b = tmproot("tenant-b");
        let mut sa = snap(&t, 2);
        let mut sb = snap(&t, 2);
        let (store_a, _) = TieredStore::create_for_table(&root_a, 0, &mut sa).unwrap();
        let (store_b, _) = TieredStore::create_for_table(&root_b, 1, &mut sb).unwrap();
        let pool = BufferPool::new(BufferPoolConfig {
            capacity_bytes: 1 << 20,
            page_bytes: 256,
        });
        let pred = between(0, 1_999);
        let expected = sa.scan(&pred).matches;
        sa.scan_pooled(&pred, &pool).unwrap();
        sb.scan_pooled(&pred, &pool).unwrap();
        let resident_both = pool.stats().pages_resident;
        assert!(resident_both > 0);

        // Drop tenant 1's gen 1: tenant 0's identically-numbered pages stay.
        pool.invalidate_generation(1, 1);
        let after = pool.stats();
        assert!(after.pages_resident > 0, "tenant 0's pages survive");
        assert!(after.pages_resident < resident_both);
        assert_eq!(after.invalidations, 1);
        let warm = sa.scan_pooled(&pred, &pool).unwrap();
        assert_eq!(warm.matches, expected);
        assert_eq!(warm.io_cold_bytes, 0, "tenant 0 is still fully cached");
        let cold = sb.scan_pooled(&pred, &pool).unwrap();
        assert_eq!(cold.matches, expected);
        assert!(cold.io_cold_bytes > 0, "tenant 1 was invalidated");
        // an invalidation with nothing resident still counts the call
        pool.invalidate_generation(9, 9);
        assert_eq!(pool.stats().invalidations, 2);
        drop(store_a);
        drop(store_b);
        drop(sa);
        drop(sb);
        fs::remove_dir_all(&root_a).unwrap();
        fs::remove_dir_all(&root_b).unwrap();
    }

    /// Pages are cut from the blob, not from the segment: with blobs of
    /// length 1, P − 1, P, P + 1 and 2P + 7 back to back in one file, page
    /// `p` of a blob is exactly bytes `[p·P, min((p + 1)·P, len))` of that
    /// blob, and every read returns the bytes and the cold/cached split a
    /// file per blob gives — the path-based `read_range` over the same
    /// bytes is the reference.
    #[test]
    fn blob_pages_never_cross_blobs() {
        const P: u64 = 64;
        let lens = [1, P - 1, P, P + 1, 2 * P + 7];
        let total: u64 = lens.iter().sum();
        // no two positions of the segment hold the same byte pair nearby
        let bytes: Vec<u8> = (0..total).map(|i| (i * 31 % 251) as u8).collect();
        let root = tmproot("blobs");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join("segment"), &bytes).unwrap();
        let generation = Generation::over_blobs(
            root.clone(),
            fs::File::open(root.join("segment")).unwrap(),
            &lens,
        );
        let config = BufferPoolConfig {
            capacity_bytes: 1 << 20,
            page_bytes: P as usize,
        };
        let (by_blob, by_file) = (BufferPool::new(config), BufferPool::new(config));
        let mut base = 0u64;
        for (i, &len) in lens.iter().enumerate() {
            let blob = &bytes[base as usize..(base + len) as usize];
            let path = root.join(format!("blob-{i}"));
            fs::write(&path, blob).unwrap();
            let i = i as u32;
            // a range in the middle first, so later reads mix hits and misses
            let mut ranges = vec![(len / 2, len - len / 2)];
            ranges.extend((0..len.div_ceil(P)).map(|p| (p * P, P.min(len - p * P))));
            ranges.extend([(0, len), (len - 1, 1), (0, 1)]);
            if len > P {
                ranges.push((P - 3, 4));
            }
            for (offset, n) in ranges {
                let (got, stats) = by_blob.read_blob(&generation, i, offset, n).unwrap();
                let want = &blob[offset as usize..(offset + n) as usize];
                assert_eq!(got, want, "blob {i} range {offset}+{n}");
                let (reference, reference_stats) = by_file
                    .read_range(&generation, i, &path, offset, n)
                    .unwrap();
                assert_eq!(reference, want, "file {i} range {offset}+{n}");
                assert_eq!(stats, reference_stats, "blob {i} range {offset}+{n}");
            }
            // the blob ends where its length says, whatever follows it
            for (offset, n) in [(0, len + 1), (len, 1), (len.next_multiple_of(P), 1)] {
                assert!(by_blob.read_blob(&generation, i, offset, n).is_err());
                assert!(by_file
                    .read_range(&generation, i, &path, offset, n)
                    .is_err());
            }
            base += len;
        }
        assert!(by_blob
            .read_blob(&generation, lens.len() as u32, 0, 1)
            .is_err());
        assert_eq!(by_blob.stats(), by_file.stats());
        assert_eq!(
            by_blob.stats().cold_bytes,
            total,
            "each byte read cold once"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn memory_only_snapshot_refuses_pooled_scan() {
        let t = table(100);
        let s = snap(&t, 2);
        let pool = BufferPool::new(BufferPoolConfig::default());
        let err = s.scan_pooled(&between(0, 10), &pool).unwrap_err();
        assert!(err.to_string().contains("no on-disk generation"), "{err}");
    }
}
