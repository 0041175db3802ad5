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
type Cache struct {
	mu   sync.Mutex
	mem  map[string][]cudnn.AlgoPerf
	path string
	file *os.File
	// w buffers Put's file appends so a benchmarking sweep is not one
	// write(2) per record; Close (and Flush) drain it. Nil iff file is.
	w     *bufio.Writer
	stats CacheStats
	m     *metricSet
}

// CacheStats is a snapshot of the cache's accounting: lookup outcomes,
// file-database traffic, and current size.
type CacheStats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// FileLoads counts records loaded from the file database at open;
	// FileStores counts records appended to it by Put.
	FileLoads, FileStores int64
	// CorruptLines counts file-database lines skipped at open because
	// they failed to parse (torn writes, truncation, corruption).
	CorruptLines int64
	// Entries is the current number of in-memory entries.
	Entries int
}

// Stats returns a snapshot of the cache's accounting.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.mem)
	return s
}

// instrument mirrors the cache's accounting into ms (live counters for
// the observability layer). Loads that happened before instrumentation
// (the eager file read in NewCache) are replayed as one Add.
func (c *Cache) instrument(ms *metricSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = ms
	ms.cacheFileLoads.Add(c.stats.FileLoads)
	ms.cacheCorruptLines.Add(c.stats.CorruptLines)
	ms.cacheEntries.Set(float64(len(c.mem)))
}

// NewCache creates a cache; path may be empty for memory-only operation.
// An existing database file is loaded eagerly.
func NewCache(path string) (*Cache, error) {
	c := &Cache{mem: map[string][]cudnn.AlgoPerf{}, path: path, m: newMetricSet(nil)}
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
			// count it (CacheStats.CorruptLines, replayed into obs by
			// instrument), and keep loading the rest of the file.
			c.stats.CorruptLines++
			continue
		}
		c.mem[rec.Key] = rec.toPerfs()
		c.stats.FileLoads++
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
	return len(c.mem)
}

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

// CacheKey builds the lookup key of one benchmarked kernel instance. The
// device and timing backend are part of the key so one database can serve
// a heterogeneous set of runs.
func CacheKey(dev string, backend cudnn.Backend, op conv.Op, cs tensor.ConvShape) string {
	p := cs.Params.Normalized()
	return fmt.Sprintf("%s|%s|%s|%dx%dx%dx%d|%dx%dx%dx%d|p%dx%d|s%dx%d|d%dx%d",
		dev, backend, op,
		cs.In.N, cs.In.C, cs.In.H, cs.In.W,
		cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S,
		p.PadH, p.PadW, p.StrideH, p.StrideW, p.DilationH, p.DilationW)
}

// Get returns the cached perfs for key.
func (c *Cache) Get(key string) ([]cudnn.AlgoPerf, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.mem[key]
	if ok {
		c.stats.Hits++
		c.m.cacheHits.Inc()
	} else {
		c.stats.Misses++
		c.m.cacheMisses.Inc()
	}
	return p, ok
}

// Put stores perfs for key, appending to the file database when present.
func (c *Cache) Put(key string, perfs []cudnn.AlgoPerf) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[key] = perfs
	c.m.cacheEntries.Set(float64(len(c.mem)))
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
	c.stats.FileStores++
	c.m.cacheFileStores.Inc()
	return nil
}
