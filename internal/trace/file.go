package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace file format:
//
//	magic "IRTR" | version byte | name length varint | name bytes
//	then per record: addr varint | gap varint | flags byte (bit0 = write)
//
// Varint encoding keeps streaming traces compact (most gaps and many
// addresses are small). The format is self-describing enough for
// cmd/tracegen output to be replayed by examples/tracereplay.

var magic = [4]byte{'I', 'R', 'T', 'R'}

const formatVersion = 1

// ErrBadFormat reports a malformed trace file.
var ErrBadFormat = errors.New("trace: bad file format")

// Write serializes the named trace to w.
func Write(w io.Writer, name string, reqs []Request) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(formatVersion); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(len(name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(reqs))); err != nil {
		return err
	}
	for _, r := range reqs {
		if err := writeUvarint(r.Addr); err != nil {
			return err
		}
		if err := writeUvarint(uint64(r.GapInstr)); err != nil {
			return err
		}
		flags := byte(0)
		if r.Write {
			flags = 1
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace file written by Write.
func Read(r io.Reader) (name string, reqs []Request, err error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if m != magic {
		return "", nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, m[:])
	}
	ver, err := br.ReadByte()
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if ver != formatVersion {
		return "", nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, ver)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if nameLen > 1<<16 {
		return "", nil, fmt.Errorf("%w: name length %d", ErrBadFormat, nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if count > 1<<32 {
		return "", nil, fmt.Errorf("%w: implausible record count %d", ErrBadFormat, count)
	}
	// The count is untrusted: records are appended as they parse, so a
	// short file claiming billions of records fails at its first missing
	// record instead of preallocating for them.
	for i := uint64(0); i < count; i++ {
		addr, err := binary.ReadUvarint(br)
		if err != nil {
			return "", nil, fmt.Errorf("%w: record %d: %v", ErrBadFormat, i, err)
		}
		gap, err := binary.ReadUvarint(br)
		if err != nil {
			return "", nil, fmt.Errorf("%w: record %d: %v", ErrBadFormat, i, err)
		}
		if gap > 1<<32-1 {
			return "", nil, fmt.Errorf("%w: record %d gap %d overflows", ErrBadFormat, i, gap)
		}
		flags, err := br.ReadByte()
		if err != nil {
			return "", nil, fmt.Errorf("%w: record %d: %v", ErrBadFormat, i, err)
		}
		if flags > 1 {
			return "", nil, fmt.Errorf("%w: record %d flags %#x", ErrBadFormat, i, flags)
		}
		reqs = append(reqs, Request{Addr: addr, GapInstr: uint32(gap), Write: flags == 1})
	}
	return string(nameBytes), reqs, nil
}
