package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/faults"
	"ucudnn/internal/tensor"
)

// Cache stores kernel benchmark results in memory and, optionally, in an
// append-only JSON-lines file database (paper §III-D): the file enables
// offline benchmarking and sharing results across a homogeneous cluster
// via a network filesystem.
//
// An entry has a key in one of two forms. The file form is CacheKey's
// string, which the database lines carry. The memory form is cacheKey,
// the same fields compared as a struct: a memory-only cache holds the
// bencher's entries under it, so a lookup formats nothing. Entries
// loaded from the file, stored in a file cache, or Put by name are held
// under the file form, and a bencher lookup that misses the memory form
// tries it.
type Cache struct {
	mu    sync.Mutex
	mem   map[cacheKey][]cudnn.AlgoPerf
	named map[string][]cudnn.AlgoPerf
	path  string
	file  *os.File
	// w buffers Put's file appends so a benchmarking sweep is not one
	// write(2) per record; Close (and Flush) drain it. Nil iff file is.
	w *bufio.Writer
	// loads and corrupt count the records loaded and the lines skipped
	// when NewCache read the file, before any registry was attached.
	loads, corrupt int64
	m              *metricSet
}

// instrument counts the cache's activity into ms (live counters for
// the observability layer). The loads made before instrumentation (the
// eager file read in NewCache) are replayed as one Add.
func (c *Cache) instrument(ms *metricSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = ms
	ms.cacheFileLoads.Add(c.loads)
	ms.cacheCorruptLines.Add(c.corrupt)
	ms.cacheEntries.Set(float64(c.lenLocked()))
}

// NewCache creates a cache; path may be empty for memory-only operation.
// An existing database file is loaded eagerly.
func NewCache(path string) (*Cache, error) {
	c := &Cache{mem: map[cacheKey][]cudnn.AlgoPerf{}, named: map[string][]cudnn.AlgoPerf{}, path: path, m: newMetricSet(nil)}
	if path == "" {
		return c, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: opening benchmark db: %w", err)
	}
	c.file = f
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := faults.Mangle(faults.PointCacheLoad, sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec dbRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			// A benchmark database is advisory: a torn, truncated or
			// corrupted line costs a re-benchmark, not the run. Skip it,
			// count it (replayed into the registry by instrument), and
			// keep loading the rest of the file.
			c.corrupt++
			continue
		}
		c.named[rec.Key] = rec.toPerfs()
		c.loads++
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("core: reading benchmark db: %w", err)
	}
	c.w = bufio.NewWriter(f)
	return c, nil
}

// Flush forces buffered Put records out to the file database.
func (c *Cache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

func (c *Cache) flushLocked() error {
	if c.w == nil {
		return nil
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("core: writing benchmark db: %w", err)
	}
	return nil
}

// Close flushes buffered records and releases the file database, if any.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.file == nil {
		return nil
	}
	ferr := c.flushLocked()
	err := c.file.Close()
	c.file = nil
	c.w = nil
	if ferr != nil {
		return ferr
	}
	return err
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lenLocked()
}

func (c *Cache) lenLocked() int { return len(c.mem) + len(c.named) }

type dbPerf struct {
	Algo int   `json:"algo"`
	NS   int64 `json:"ns"`
	Mem  int64 `json:"mem"`
}

type dbRecord struct {
	Key   string   `json:"key"`
	Perfs []dbPerf `json:"perfs"`
}

func (r dbRecord) toPerfs() []cudnn.AlgoPerf {
	out := make([]cudnn.AlgoPerf, len(r.Perfs))
	for i, p := range r.Perfs {
		out[i] = cudnn.AlgoPerf{Algo: conv.Algo(p.Algo), Time: time.Duration(p.NS), Memory: p.Mem}
	}
	return out
}

// cacheKey is the memory form of a cache key (see Cache): the fields
// CacheKey formats, with the convolution parameters normalized.
type cacheKey struct {
	dev     string
	backend cudnn.Backend
	op      conv.Op
	shape   tensor.ConvShape
}

func newCacheKey(dev string, backend cudnn.Backend, op conv.Op, cs tensor.ConvShape) cacheKey {
	cs.Params = cs.Params.Normalized()
	return cacheKey{dev: dev, backend: backend, op: op, shape: cs}
}

// String returns the key's file form.
func (k cacheKey) String() string {
	cs, p := k.shape, k.shape.Params
	return fmt.Sprintf("%s|%s|%s|%dx%dx%dx%d|%dx%dx%dx%d|p%dx%d|s%dx%d|d%dx%d",
		k.dev, k.backend, k.op,
		cs.In.N, cs.In.C, cs.In.H, cs.In.W,
		cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S,
		p.PadH, p.PadW, p.StrideH, p.StrideW, p.DilationH, p.DilationW)
}

// CacheKey builds the lookup key of one benchmarked kernel instance in
// its file form. The device and timing backend are part of the key so
// one database can serve a heterogeneous set of runs.
func CacheKey(dev string, backend cudnn.Backend, op conv.Op, cs tensor.ConvShape) string {
	return newCacheKey(dev, backend, op, cs).String()
}

// Get returns the cached perfs for key, a file-form key. The entries a
// bencher stored in a memory-only cache are held under the memory form,
// which Get does not consult.
func (c *Cache) Get(key string) ([]cudnn.AlgoPerf, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.named[key]
	c.countLookup(ok)
	return p, ok
}

// lookup returns the cached perfs for k, formatting its file form only
// when entries are held under it.
func (c *Cache) lookup(k cacheKey) ([]cudnn.AlgoPerf, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.mem[k]
	if !ok && len(c.named) > 0 {
		p, ok = c.named[k.String()]
	}
	c.countLookup(ok)
	return p, ok
}

func (c *Cache) countLookup(hit bool) {
	if hit {
		c.m.cacheHits.Inc()
	} else {
		c.m.cacheMisses.Inc()
	}
}

// store stores perfs for k: under its memory form in a memory-only
// cache, through Put otherwise.
func (c *Cache) store(k cacheKey, perfs []cudnn.AlgoPerf) error {
	if c.path != "" {
		return c.Put(k.String(), perfs)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[k] = perfs
	c.m.cacheEntries.Set(float64(c.lenLocked()))
	return nil
}

// Put stores perfs for key, a file-form key, appending to the file
// database when present.
func (c *Cache) Put(key string, perfs []cudnn.AlgoPerf) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.named[key] = perfs
	c.m.cacheEntries.Set(float64(c.lenLocked()))
	if c.file == nil {
		return nil
	}
	rec := dbRecord{Key: key}
	for _, p := range perfs {
		rec.Perfs = append(rec.Perfs, dbPerf{Algo: int(p.Algo), NS: int64(p.Time), Mem: p.Memory})
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := c.w.Write(data); err != nil {
		return fmt.Errorf("core: writing benchmark db: %w", err)
	}
	c.m.cacheFileStores.Inc()
	return nil
}
