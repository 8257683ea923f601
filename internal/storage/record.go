// Package storage implements StoryPivot's embedded event repository: a
// crash-safe, append-only store for information snippets.
//
// The paper assumes extractions are "stored in repositories that get
// updated regularly" (GDELT/EventRegistry-style). This package is the
// offline substitute: append-only chunk files on disk (every append is a
// CRC-framed record; torn tails are detected and truncated at recovery)
// with a per-chunk ID index, hot in memory or tiered out to mmap and
// compressed files. It serves what the
// pipeline needs of it — append, fetch by ID, and one chronological replay
// at open; entity, time, and source lookups over the live result belong to
// internal/index.
package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Record framing on disk:
//
//	u32 magic | u8 version | u32 payloadLen | u32 crc32(payload) | payload
//
// The magic number guards against scanning garbage after a torn write; the
// CRC detects partial or corrupted payloads. An append writes its records
// with a single Write call, so a crash can only tear a segment's tail.
const (
	recordMagic   = 0x53505631 // "SPV1"
	recordVersion = 1
	headerSize    = 4 + 1 + 4 + 4
	// maxRecordSize bounds payload length. A scan reads a longer length
	// prefix as corruption, so appends refuse such a payload rather than
	// acknowledge a record the next open would discard.
	maxRecordSize = 64 << 20
)

// Errors surfaced by the record layer.
var (
	// ErrCorruptRecord reports a record whose header or checksum is
	// invalid. During recovery this is expected at a torn tail.
	ErrCorruptRecord = errors.New("storage: corrupt record")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("storage: store is closed")
	// ErrDuplicate reports an append whose snippet ID is already stored.
	// At-least-once delivery paths (feed redelivery after a cursor
	// rollback) match it with errors.Is and treat it as an ack.
	ErrDuplicate = errors.New("storage: duplicate snippet ID")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecord frames payload into buf and returns the extended buffer.
func appendRecord(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, recordMagic)
	buf = append(buf, recordVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// scanFrames walks the framing of data, returning the offsets of its
// leading intact frames and the number of bytes they span. Anything past
// valid (a bad magic, version, length or CRC, or a frame cut short) is the
// signature of a torn tail.
func scanFrames(data []byte) (offs []uint32, valid int) {
	off := 0
	for off+headerSize <= len(data) {
		if binary.LittleEndian.Uint32(data[off:off+4]) != recordMagic || data[off+4] != recordVersion {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off+5 : off+9]))
		if n > maxRecordSize || off+headerSize+n > len(data) {
			break
		}
		payload := data[off+headerSize : off+headerSize+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+9:off+13]) {
			break
		}
		offs = append(offs, uint32(off))
		off += headerSize + n
	}
	return offs, off
}

// framePayload returns the payload of the frame starting at off.
func framePayload(data []byte, off uint32) []byte {
	n := binary.LittleEndian.Uint32(data[off+5 : off+9])
	return data[off+headerSize : uint32(headerSize)+off+n]
}
