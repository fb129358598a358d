package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// rooflineBytes sizes the memcpy buffer and the pread file. Both must be
// at least 4x the last-level cache (105 MiB on the reference machine) so
// neither measurement runs out of cache.
const rooflineBytes = 448 << 20

// memcpyProbe is the in-run memory-bandwidth reference: one
// rooflineBytes buffer, resident for the whole run, whose halves are
// copied onto each other between rounds (outside the timed windows, once
// per probeEvery of timed work) and again at the end. Sampling it throughout the run, not once, is what
// lets roofline_frac cancel the host's bandwidth drift: on a shared host
// job times and memcpy bandwidth move together from minute to minute.
type memcpyProbe struct {
	buf     []byte
	samples []float64 // GB/s, one per copy of half the buffer
}

func newMemcpyProbe() *memcpyProbe {
	p := &memcpyProbe{buf: make([]byte, rooflineBytes)}
	for i := 0; i < len(p.buf); i += 4096 {
		p.buf[i] = byte(i >> 12)
	}
	return p
}

// sample copies one half of the buffer onto the other, alternating the
// direction, and records the bandwidth.
func (p *memcpyProbe) sample() {
	half := len(p.buf) / 2
	dst, src := p.buf[:half], p.buf[half:]
	if len(p.samples)%2 == 1 {
		dst, src = src, dst
	}
	t := time.Now()
	copy(dst, src)
	p.samples = append(p.samples, float64(half)/time.Since(t).Seconds()/1e9)
}

// roofline is the machine reference measured in the same process as the
// workload: the bandwidth a pass could reach if moving its bytes were
// the only cost.
type roofline struct {
	memcpyGBps float64 // median over the run's probe samples
	preadGBps  float64 // sequential pread of a page-cache-resident file
}

// measureRoofline takes a last burst of memcpy samples and preads a
// rooflineBytes file written from the probe buffer just before, so the
// pread figure is page-cache bandwidth in this process, not a device
// figure. Both are medians of repetitions.
func measureRoofline(dir string, p *memcpyProbe) (roofline, error) {
	for rep := 0; rep < 16; rep++ {
		p.sample()
	}
	path := filepath.Join(dir, "roofline.dat")
	f, err := os.Create(path)
	if err != nil {
		return roofline{}, err
	}
	defer os.Remove(path)
	defer f.Close()
	if _, err := f.Write(p.buf); err != nil {
		return roofline{}, err
	}
	chunk := p.buf[:1<<20]
	var pread []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		for off := int64(0); off < rooflineBytes; off += int64(len(chunk)) {
			if _, err := f.ReadAt(chunk, off); err != nil && err != io.EOF {
				return roofline{}, err
			}
		}
		pread = append(pread, float64(rooflineBytes)/time.Since(t).Seconds()/1e9)
	}
	return roofline{memcpyGBps: median(p.samples), preadGBps: median(pread)}, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("perfbench: no VmHWM in /proc/self/status")
}
