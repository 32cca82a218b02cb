package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssSampler samples a process's resident set size every rssEvery and keeps
// the largest value seen since the last take. Peak RSS per pass, rather
// than over the process's life, lets a run report the median of several
// passes instead of one high-water mark that garbage-collector timing
// decides.
type rssSampler struct {
	path string
	mu   sync.Mutex
	peak int64 // bytes
	err  error
	stop chan struct{}
	done chan struct{}
}

const rssEvery = 10 * time.Millisecond

// startRSS starts sampling process pid.
func startRSS(pid int) *rssSampler {
	s := &rssSampler{
		path: fmt.Sprintf("/proc/%d/statm", pid),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	rss, err := readRSS(s.path)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.peak = max(s.peak, rss)
}

// take returns the peak since the previous take, in MB, and starts a new
// window at the current size.
func (s *rssSampler) take() (float64, error) {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	peak, err := s.peak, s.err
	s.peak, s.err = 0, nil
	return float64(peak) / (1 << 20), err
}

// close stops the sampler and waits for it.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// readRSS reads the resident set, in bytes, from a /proc/<pid>/statm file.
func readRSS(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("%s: unexpected contents %q", path, data)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return pages * int64(os.Getpagesize()), nil
}
