package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of /proc/<pid>/stat CPU fields (USER_HZ, 100 on
// every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procCPU is process pid's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// rssMB is process pid's resident set size in MB (10^6 bytes); pid 0
// means this process.
func rssMB(pid int) (float64, error) {
	path := "/proc/self/statm"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/statm", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed %s", path)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / 1e6, nil
}

// rssEvery is the resident-set sampling period.
const rssEvery = 10 * time.Millisecond

// rssSampler samples a process's resident set size every rssEvery.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if mb, err := rssMB(pid); err == nil {
					s.mb = append(s.mb, mb)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.mb
}

// peakRSS is the robust peak of resident-set samples: their 99th
// percentile, or their maximum when too few samples lie beyond it.
func peakRSS(samples []float64) float64 {
	if p, ok := percentile(samples, 99); ok {
		return p
	}
	if len(samples) == 0 {
		return math.NaN()
	}
	s := sorted(samples)
	return s[len(s)-1]
}

// promValue extracts one unlabeled sample from Prometheus text
// exposition (0 when absent).
func promValue(text []byte, name string) float64 {
	for _, line := range bytes.Split(text, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(name+" ")); ok {
			v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest)), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
