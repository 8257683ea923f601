//go:build !unix

package main

import "time"

// cpuTime is unavailable without getrusage; cpu_us_per_op reads 0.
func cpuTime() time.Duration { return 0 }
