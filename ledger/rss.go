package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// rssEvery is the sampling period of the resident-set sampler: short
// enough to catch a multi-megabyte allocation being filled, long enough
// that sampling costs well under 1% of one core.
const rssEvery = time.Millisecond

// rssSampler records the peak resident set of this process between
// resets by reading /proc/self/statm every rssEvery. getrusage's maxrss
// cannot be reset, so a run's maxrss is its single worst iteration; the
// sampler gives every iteration its own peak, and the benchmark reports
// their median.
type rssSampler struct {
	f    *os.File
	page int64
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

// startRSSSampler opens /proc/self/statm and starts sampling; stop it
// with close.
func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{f: f, page: int64(os.Getpagesize()), stop: make(chan struct{}), done: make(chan struct{})}
	if _, err := s.sample(); err != nil {
		f.Close()
		return nil, err
	}
	go s.loop()
	return s, nil
}

func (s *rssSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(rssEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.sample() // startRSSSampler's first sample proved the file readable

		}
	}
}

// sample reads the current resident set and raises the peak to it. It
// runs on the sampling goroutine and on the caller's; ReadAt is safe for
// concurrent use.
func (s *rssSampler) sample() (int64, error) {
	var buf [128]byte
	n, err := s.f.ReadAt(buf[:], 0)
	if n == 0 {
		return 0, fmt.Errorf("reading /proc/self/statm: %v", err)
	}
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", buf[:n])
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	rss := pages * s.page
	for {
		p := s.peak.Load()
		if rss <= p || s.peak.CompareAndSwap(p, rss) {
			return rss, nil
		}
	}
}

// reset starts a new peak from the current resident set.
func (s *rssSampler) reset() {
	s.peak.Store(0)
	s.sample()
}

// peakBytes returns the peak since the last reset, including a sample
// taken now.
func (s *rssSampler) peakBytes() int64 {
	s.sample()
	return s.peak.Load()
}

// close stops the sampler and waits for its goroutine to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
	s.f.Close()
}
