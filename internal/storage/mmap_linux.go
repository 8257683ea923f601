//go:build linux

package storage

import (
	"os"
	"syscall"
)

// mmapFile maps size bytes of f read-only. The mapping outlives the file
// descriptor, so callers may close f immediately; it is released with
// munmapChunk.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapChunk(b []byte) error {
	if b == nil {
		return nil
	}
	return syscall.Munmap(b)
}
