package main

import (
	"os"
	"runtime"
	"strings"
	"time"
)

// machine is the header every result carries: numbers from two machines
// are not comparable, and on this kind of VM the timer granularity is what
// decides whether an open-loop generator can keep its schedule.
type machine struct {
	NumCPU             int     `json:"num_cpu"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	CPUModel           string  `json:"cpu_model"`
	GoVersion          string  `json:"go_version"`
	Kernel             string  `json:"kernel"`
	TimerGranularityUs float64 `json:"timer_granularity_us"`
	Transport          string  `json:"transport"`
}

func readMachine() machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Transport:  "loopback",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	// How long a 60 µs sleep really takes: the median of 21.
	var took []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		time.Sleep(60 * time.Microsecond)
		took = append(took, float64(time.Since(t0))/1e3)
	}
	m.TimerGranularityUs = median(took)
	return m
}
