//go:build !linux

package storage

import (
	"io"
	"os"
)

// mmapFile on platforms without the mmap syscall wiring falls back to a
// plain read: a sealed chunk's bytes then live on the heap, as the open
// chunk's do, behind the same interface.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	b := make([]byte, size)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, err
	}
	return b, nil
}

func munmapChunk(b []byte) error { return nil }
