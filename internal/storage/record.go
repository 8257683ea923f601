// Package storage implements StoryPivot's embedded event repository: a
// crash-safe, append-only store for information snippets.
//
// The paper assumes extractions are "stored in repositories that get
// updated regularly" (GDELT/EventRegistry-style). This package is the
// offline substitute: a write-ahead segmented log on disk (every append is
// a CRC-framed record; torn tails are detected and truncated at recovery)
// plus an in-memory map by snippet ID rebuilt on open. It serves what the
// pipeline needs of it — append, fetch by ID, and one chronological replay
// at open; entity, time, and source lookups over the live result belong to
// internal/index.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record framing on disk:
//
//	u32 magic | u8 version | u32 payloadLen | u32 crc32(payload) | payload
//
// The magic number guards against scanning garbage after a torn write; the
// CRC detects partial or corrupted payloads. Records are written with a
// single Write call so a crash can only tear the final record of a segment.
const (
	recordMagic   = 0x53505631 // "SPV1"
	recordVersion = 1
	headerSize    = 4 + 1 + 4 + 4
	// maxRecordSize bounds payload length to keep a corrupt length prefix
	// from driving huge allocations during recovery scans.
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

// readRecord reads one framed record from r. It returns io.EOF cleanly at
// end of stream, and ErrCorruptRecord for torn or damaged data.
func readRecord(r io.Reader, payloadBuf []byte) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		// A header torn mid-way is a torn tail.
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: torn header", ErrCorruptRecord)
		}
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != recordMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptRecord)
	}
	if hdr[4] != recordVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrCorruptRecord, hdr[4])
	}
	n := binary.LittleEndian.Uint32(hdr[5:9])
	if n > maxRecordSize {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorruptRecord, n)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[9:13])
	if cap(payloadBuf) < int(n) {
		payloadBuf = make([]byte, n)
	}
	payloadBuf = payloadBuf[:n]
	if _, err := io.ReadFull(r, payloadBuf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: torn payload", ErrCorruptRecord)
		}
		return nil, err
	}
	if crc32.Checksum(payloadBuf, crcTable) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	return payloadBuf, nil
}
