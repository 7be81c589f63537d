package main

import (
	"sort"
	"sync"
	"time"
)

// The benchmark's clock leaves out the time the hypervisor gave to other
// guests. On a shared virtual machine, steal comes and goes over seconds
// and takes up to half the CPU time: wall-clock latency and throughput then
// measure the neighbours, not the program. The clock samples /proc/stat
// every clockPeriod and lets each window of wall time count only in the
// share that was not stolen: an interval's duration is the integral of
// (1 - steal share) over it. The share is that of the busy CPU time (steal
// over all ticks but idle and iowait): the hypervisor steals only from a
// virtual CPU that wants to run, so a share of all ticks would understate
// what a request on a busy CPU loses while the other CPU idles. Every
// timed interval of the end-to-end metrics (requests, qps rounds,
// set-ups) is read on this clock; with no steal it reads the wall clock.
const (
	clockPeriod = 250 * time.Millisecond
	// clockMinTicks: a window with fewer busy CPU ticks than this keeps
	// the share of the window before it (the share of a few is noise).
	clockMinTicks = 10
)

type clockSample struct {
	wall time.Time
	// net is the clock's reading at wall: unstolen time since the start.
	net time.Duration
}

type stealClock struct {
	mu      sync.Mutex
	samples []clockSample
	// total, idle and steal are the tick counters at the last sample.
	total, idle, steal uint64
	share              float64
	stop, done         chan struct{}
}

// startStealClock starts the sampler; stopClock ends it.
func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.total, c.idle, c.steal = cpuTicks()
	c.samples = []clockSample{{wall: time.Now()}}
	go func() {
		defer close(c.done)
		tick := time.NewTicker(clockPeriod)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) sample() {
	total, idle, steal := cpuTicks()
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if share, ok := stealShare(total-c.total, idle-c.idle, steal-c.steal); ok {
		c.share = share
	}
	c.total, c.idle, c.steal = total, idle, steal
	last := c.samples[len(c.samples)-1]
	c.samples = append(c.samples, clockSample{now, last.net + time.Duration(float64(now.Sub(last.wall))*(1-c.share))})
}

func (c *stealClock) stopClock() {
	close(c.stop)
	<-c.done
}

// settle waits until the clock has a sample later than t, so intervals up
// to t are read on measured shares.
func (c *stealClock) settle(t time.Time) {
	for {
		c.mu.Lock()
		last := c.samples[len(c.samples)-1].wall
		c.mu.Unlock()
		if last.After(t) {
			return
		}
		time.Sleep(clockPeriod / 10)
	}
}

// at reads the clock at wall time t, interpolating between samples; past
// the last sample it runs at the last share.
func (c *stealClock) at(t time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.samples
	i := sort.Search(len(s), func(i int) bool { return s[i].wall.After(t) })
	switch {
	case i == 0:
		return s[0].net - s[0].wall.Sub(t)
	case i == len(s):
		return s[i-1].net + time.Duration(float64(t.Sub(s[i-1].wall))*(1-c.share))
	}
	a, b := s[i-1], s[i]
	rate := float64(b.net-a.net) / float64(b.wall.Sub(a.wall))
	return a.net + time.Duration(float64(t.Sub(a.wall))*rate)
}

// between is the clock's duration of the wall interval [a, b].
func (c *stealClock) between(a, b time.Time) time.Duration { return c.at(b) - c.at(a) }

// stealShare is steal over the busy ticks of a window (all ticks but idle
// and iowait); ok is false when the window has too few busy ticks to say.
func stealShare(total, idle, steal uint64) (share float64, ok bool) {
	if total < idle || total-idle < clockMinTicks {
		return 0, false
	}
	return float64(steal) / float64(total-idle), true
}
