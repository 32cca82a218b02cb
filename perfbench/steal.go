package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// On a virtual machine the hypervisor can run other guests on this one's
// CPUs ("steal"), stretching the wall time of whatever runs here by an
// amount that has nothing to do with the code measured. A meter measures
// an interval's wall time, the CPU time stolen from the machine meanwhile,
// and this process's CPU time; the benchmark's wall figures are wall time
// less the steal per CPU.
type meter struct {
	t0     time.Time
	cpu0   time.Duration
	steal0 float64
}

// startMeter starts measuring.
func startMeter() (meter, error) {
	st, err := stealPerCPU()
	if err != nil {
		return meter{}, err
	}
	return meter{t0: time.Now(), cpu0: cpuSelf(), steal0: st}, nil
}

// stop returns the interval's wall seconds, the seconds stolen from each
// CPU in it on average, and this process's CPU seconds.
func (m meter) stop() (wall, stolen, cpu float64, err error) {
	wall, cpu = time.Since(m.t0).Seconds(), (cpuSelf() - m.cpu0).Seconds()
	st, err := stealPerCPU()
	return wall, st - m.steal0, cpu, err
}

// stealPerCPU reads the machine's total steal time from /proc/stat, in
// seconds per CPU.
func stealPerCPU() (float64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseSteal(string(data))
}

// parseSteal reads the steal column of /proc/stat's "cpu" line and divides
// it by the number of "cpuN" lines.
func parseSteal(data string) (float64, error) {
	var total float64
	cpus := 0
	for _, line := range strings.Split(data, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if f[0] != "cpu" {
			cpus++
			continue
		}
		// cpu user nice system idle iowait irq softirq steal ...
		if len(f) < 9 {
			return 0, fmt.Errorf("/proc/stat: no steal column in %q", line)
		}
		ticks, err := strconv.ParseFloat(f[8], 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total = ticks / userHZ
	}
	if cpus == 0 {
		return 0, fmt.Errorf("/proc/stat: no per-CPU lines")
	}
	return total / float64(cpus), nil
}

// userHZ is the unit of /proc/stat times: Linux reports them in USER_HZ,
// 100 per second on every architecture Go supports.
const userHZ = 100
