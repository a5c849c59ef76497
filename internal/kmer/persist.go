// On-disk persistence for the large-seed index: an mmap-friendly,
// little-endian, page-aligned format so a genome-scale index loads in
// milliseconds instead of being rebuilt per run.
//
// Layout (all integers little-endian):
//
//	magic    [8]byte  "GNUMAPIX"
//	version  uint16   (currently 1)
//	hlen     uint32   header length (v1: exactly 108)
//	header   [hlen]   fixed v1 layout, see encodeIndexHeader — the
//	                  reference fingerprint (SHA-256 + length), seed
//	                  parameters, section element counts, and one
//	                  CRC-32C per section
//	hcrc     uint32   CRC-32C of header
//	-- zero padding to offset 4096 --
//	slotOff  [(nParts+1) * 8]   partition directory
//	keys     [nSlots * 8]
//	starts   [nSlots * 4]       (padded to an 8-byte boundary)
//	counts   [nSlots * 4]       (padded to an 8-byte boundary)
//	positions[nPos * 4]
//
// Every section starts 8-byte aligned at a fixed offset computable from
// the header, so on a little-endian host the mmap'd file is used
// zero-copy: the slot arrays are reinterpreted views of the mapping.
// Big-endian hosts and non-mmap platforms fall back to a read + decode
// copy. The header CRC is always verified; section CRCs are verified on
// the copy path and on demand (LoadOptions.Verify) for the mmap path —
// full-file checksumming on every load would cost as much as the
// rebuild the format exists to avoid, which is the same trust model
// every mmap'd genomics index (SNAP, BWA) uses. Structural validation
// (directory shape, bounds) always runs, and lookups bounds-guard, so
// a torn file can degrade lookups but never corrupt memory.
//
// WriteIndexFile is atomic exactly like ckpt.WriteFile: temp file in
// the destination directory, fsync, rename, directory fsync.
package kmer

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"unsafe"
)

// IndexMagic identifies a persisted seed-index file.
var IndexMagic = [8]byte{'G', 'N', 'U', 'M', 'A', 'P', 'I', 'X'}

// IndexVersion is the current on-disk format version.
const IndexVersion = 1

// ixHeaderLen is the exact v1 header size.
const ixHeaderLen = 32 + 8 + 8 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 5*4

// ixPage is the header block size; the first section starts here so
// every section offset is page-aligned relative to the mmap base.
const ixPage = 4096

// Typed failure modes of the index loader, mirroring package ckpt:
// every load error wraps exactly one of these.
var (
	// ErrNotIndex: the data does not start with the magic bytes.
	ErrNotIndex = errors.New("kmer: not a seed-index file")
	// ErrVersion: the format version is not supported by this build.
	ErrVersion = errors.New("kmer: unsupported seed-index version")
	// ErrTruncated: the data ends before a declared section does.
	ErrTruncated = errors.New("kmer: truncated seed-index")
	// ErrChecksum: a section's CRC does not match its contents.
	ErrChecksum = errors.New("kmer: seed-index checksum mismatch")
	// ErrCorrupt: the checksummed framing parses but the declared
	// structure is impossible (directory not power-of-two sized, counts
	// out of range, trailing bytes).
	ErrCorrupt = errors.New("kmer: corrupt seed-index structure")
	// ErrRefMismatch: the index was built for a different reference (or
	// different seed parameters) than the one being mapped.
	ErrRefMismatch = errors.New("kmer: seed-index reference mismatch")
)

// hostLittle reports whether this host stores integers little-endian —
// the precondition for zero-copy reinterpretation of the on-disk
// sections.
var hostLittle = binary.NativeEndian.Uint16([]byte{0x01, 0x02}) == 0x0201

// indexHeader is the decoded fixed header.
type indexHeader struct {
	refDigest          [32]byte
	refLen, seqLen     int64
	k, maxStore        int
	partBits           uint
	nParts             int64
	nSlots, nPos       int64
	crcSlotOff         uint32
	crcKeys, crcStarts uint32
	crcCounts, crcPos  uint32
}

// IndexInfo is the publicly inspectable part of a persisted index
// header (ReadIndexInfo) — enough for a CLI to adopt the stored seed
// length and to explain fingerprint mismatches.
type IndexInfo struct {
	RefDigest [32]byte
	RefLen    int64
	SeqLen    int64
	K         int
	MaxStore  int
	Slots     int64
	Positions int64
	FileBytes int64
}

// indexLayout maps a header to section byte offsets.
type indexLayout struct {
	slotOff, keys, starts, counts, positions int64
	size                                     int64
}

func align8(n int64) int64 { return (n + 7) &^ 7 }

// layoutFor derives section offsets, rejecting headers whose declared
// counts are impossible (overflow, int32 position cursors exceeded).
func layoutFor(h *indexHeader) (indexLayout, error) {
	var l indexLayout
	if h.partBits < 1 || h.partBits > 16 || h.nParts != 1<<h.partBits {
		return l, fmt.Errorf("%w: %d partitions for %d partition bits", ErrCorrupt, h.nParts, h.partBits)
	}
	if h.k < 1 || h.k > 32 {
		return l, fmt.Errorf("%w: seed length %d", ErrCorrupt, h.k)
	}
	if h.maxStore < 1 {
		return l, fmt.Errorf("%w: max-store %d", ErrCorrupt, h.maxStore)
	}
	if h.seqLen < 0 || h.seqLen > 1<<31-1 || h.refLen < 0 {
		return l, fmt.Errorf("%w: sequence length %d", ErrCorrupt, h.seqLen)
	}
	// starts index positions with int32, and slots can be at most 4x
	// the distinct seed count, itself bounded by the sequence length.
	if h.nPos < 0 || h.nPos > 1<<31-1 || h.nSlots < 0 || h.nSlots > 1<<33 {
		return l, fmt.Errorf("%w: %d slots / %d positions", ErrCorrupt, h.nSlots, h.nPos)
	}
	l.slotOff = ixPage
	l.keys = l.slotOff + (h.nParts+1)*8
	l.starts = l.keys + h.nSlots*8
	l.counts = align8(l.starts + h.nSlots*4)
	l.positions = align8(l.counts + h.nSlots*4)
	l.size = l.positions + h.nPos*4
	return l, nil
}

var crcTab = crc32.MakeTable(crc32.Castagnoli)

func crcOf(b []byte) uint32 { return crc32.Checksum(b, crcTab) }

// viewBytes reinterprets a slice's backing memory as raw bytes. Only
// meaningful on little-endian hosts, where the in-memory layout equals
// the on-disk layout.
func viewBytes[E int32 | int64 | uint64](s []E) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// sectionBytes renders a slice in the on-disk (little-endian) layout:
// zero-copy on little-endian hosts, an encoded copy elsewhere.
func i64LE(s []int64) []byte {
	if hostLittle {
		return viewBytes(s)
	}
	b := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
	}
	return b
}

func u64LE(s []uint64) []byte {
	if hostLittle {
		return viewBytes(s)
	}
	b := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
	return b
}

func i32LE(s []int32) []byte {
	if hostLittle {
		return viewBytes(s)
	}
	b := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
	}
	return b
}

// aligned reports whether b's backing memory is n-byte aligned.
func aligned(b []byte, n uintptr) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%n == 0
}

// decI64 decodes a little-endian int64 section: a zero-copy
// reinterpretation of b when host endianness and alignment allow, an
// element-wise copy otherwise. The result may alias b.
func decI64(b []byte) []int64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittle && aligned(b, 8) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func decU64(b []byte) []uint64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittle && aligned(b, 8) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func decI32(b []byte) []int32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittle && aligned(b, 4) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// encodeIndexHeader renders the fixed v1 header.
func encodeIndexHeader(h *indexHeader) []byte {
	b := make([]byte, 0, ixHeaderLen)
	b = append(b, h.refDigest[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(h.refLen))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.seqLen))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.k))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.maxStore))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.partBits))
	b = binary.LittleEndian.AppendUint32(b, 0) // reserved
	b = binary.LittleEndian.AppendUint64(b, uint64(h.nParts))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.nSlots))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.nPos))
	b = binary.LittleEndian.AppendUint32(b, h.crcSlotOff)
	b = binary.LittleEndian.AppendUint32(b, h.crcKeys)
	b = binary.LittleEndian.AppendUint32(b, h.crcStarts)
	b = binary.LittleEndian.AppendUint32(b, h.crcCounts)
	b = binary.LittleEndian.AppendUint32(b, h.crcPos)
	return b
}

// parseIndexHeader validates the preamble and the CRC-guarded header
// from the first bytes of a file (at least the first ixPage bytes, or
// the whole file when smaller).
func parseIndexHeader(block []byte) (*indexHeader, error) {
	if len(block) < len(IndexMagic) {
		return nil, fmt.Errorf("%w: %d bytes", ErrNotIndex, len(block))
	}
	if string(block[:len(IndexMagic)]) != string(IndexMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrNotIndex, block[:len(IndexMagic)])
	}
	if len(block) < 14 {
		return nil, fmt.Errorf("%w: missing version/header length", ErrTruncated)
	}
	ver := binary.LittleEndian.Uint16(block[8:10])
	if ver != IndexVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, ver, IndexVersion)
	}
	hlen := int64(binary.LittleEndian.Uint32(block[10:14]))
	if hlen != ixHeaderLen {
		return nil, fmt.Errorf("%w: header length %d, v1 is %d", ErrCorrupt, hlen, ixHeaderLen)
	}
	if int64(len(block)) < 14+hlen+4 {
		return nil, fmt.Errorf("%w: header section", ErrTruncated)
	}
	hb := block[14 : 14+hlen]
	hcrc := binary.LittleEndian.Uint32(block[14+hlen : 14+hlen+4])
	if crcOf(hb) != hcrc {
		return nil, fmt.Errorf("%w: header", ErrChecksum)
	}
	h := &indexHeader{}
	copy(h.refDigest[:], hb[0:32])
	h.refLen = int64(binary.LittleEndian.Uint64(hb[32:40]))
	h.seqLen = int64(binary.LittleEndian.Uint64(hb[40:48]))
	h.k = int(int32(binary.LittleEndian.Uint32(hb[48:52])))
	h.maxStore = int(int32(binary.LittleEndian.Uint32(hb[52:56])))
	h.partBits = uint(binary.LittleEndian.Uint32(hb[56:60]))
	h.nParts = int64(binary.LittleEndian.Uint64(hb[64:72]))
	h.nSlots = int64(binary.LittleEndian.Uint64(hb[72:80]))
	h.nPos = int64(binary.LittleEndian.Uint64(hb[80:88]))
	h.crcSlotOff = binary.LittleEndian.Uint32(hb[88:92])
	h.crcKeys = binary.LittleEndian.Uint32(hb[92:96])
	h.crcStarts = binary.LittleEndian.Uint32(hb[96:100])
	h.crcCounts = binary.LittleEndian.Uint32(hb[100:104])
	h.crcPos = binary.LittleEndian.Uint32(hb[104:108])
	return h, nil
}

// EncodeIndex serializes a built index for the given reference
// fingerprint. Large indexes should prefer WriteIndexFile, which
// streams sections without concatenating the whole file in memory.
func EncodeIndex(ix *LargeIndex, refDigest [32]byte, refLen int64) []byte {
	h, secs := indexSections(ix, refDigest, refLen)
	lay, err := layoutFor(h)
	if err != nil {
		// A built index always lays out; this is unreachable.
		panic(err)
	}
	out := make([]byte, lay.size)
	copy(out, IndexMagic[:])
	binary.LittleEndian.PutUint16(out[8:10], IndexVersion)
	binary.LittleEndian.PutUint32(out[10:14], ixHeaderLen)
	hb := encodeIndexHeader(h)
	copy(out[14:], hb)
	binary.LittleEndian.PutUint32(out[14+ixHeaderLen:], crcOf(hb))
	for i, off := range []int64{lay.slotOff, lay.keys, lay.starts, lay.counts, lay.positions} {
		copy(out[off:], secs[i])
	}
	return out
}

// indexSections renders the five section byte images and the header
// carrying their CRCs.
func indexSections(ix *LargeIndex, refDigest [32]byte, refLen int64) (*indexHeader, [5][]byte) {
	secs := [5][]byte{
		i64LE(ix.slotOff), u64LE(ix.keys), i32LE(ix.starts),
		i32LE(ix.counts), i32LE(ix.positions),
	}
	h := &indexHeader{
		refDigest: refDigest, refLen: refLen, seqLen: int64(ix.seqLen),
		k: ix.k, maxStore: ix.maxStore, partBits: ix.partBits,
		nParts: int64(len(ix.slotOff)) - 1,
		nSlots: int64(len(ix.keys)), nPos: int64(len(ix.positions)),
		crcSlotOff: crcOf(secs[0]), crcKeys: crcOf(secs[1]),
		crcStarts: crcOf(secs[2]), crcCounts: crcOf(secs[3]),
		crcPos: crcOf(secs[4]),
	}
	return h, secs
}

// WriteIndexFile atomically persists the index for the reference with
// the given fingerprint: sections stream through a buffered writer to a
// temp file in the destination directory, which is fsynced and renamed
// over path (then the directory is fsynced). Returns the file size.
func WriteIndexFile(path string, ix *LargeIndex, refDigest [32]byte, refLen int64) (int64, error) {
	if ix.mapped != nil {
		return 0, fmt.Errorf("kmer: refusing to rewrite an mmap-loaded index")
	}
	h, secs := indexSections(ix, refDigest, refLen)
	lay, err := layoutFor(h)
	if err != nil {
		return 0, fmt.Errorf("kmer: write %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp.*")
	if err != nil {
		return 0, fmt.Errorf("kmer: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) (int64, error) {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("kmer: write %s: %w", path, err)
	}
	w := bufio.NewWriterSize(tmp, 1<<20)
	hb := encodeIndexHeader(h)
	block := make([]byte, ixPage)
	copy(block, IndexMagic[:])
	binary.LittleEndian.PutUint16(block[8:10], IndexVersion)
	binary.LittleEndian.PutUint32(block[10:14], ixHeaderLen)
	copy(block[14:], hb)
	binary.LittleEndian.PutUint32(block[14+ixHeaderLen:], crcOf(hb))
	if _, err := w.Write(block); err != nil {
		return fail(err)
	}
	offs := []int64{lay.slotOff, lay.keys, lay.starts, lay.counts, lay.positions}
	written := int64(ixPage)
	var pad [8]byte
	for i, sec := range secs {
		if gap := offs[i] - written; gap > 0 {
			if _, err := w.Write(pad[:gap]); err != nil {
				return fail(err)
			}
			written += gap
		}
		if _, err := w.Write(sec); err != nil {
			return fail(err)
		}
		written += int64(len(sec))
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("kmer: write %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("kmer: write %s: %w", path, err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return written, nil
}

// LoadOptions controls LoadIndexFile.
type LoadOptions struct {
	// RefDigest/RefLen pin the index to the reference about to be
	// mapped; a mismatch returns ErrRefMismatch. Both zero skips the
	// check (inspection tooling).
	RefDigest [32]byte
	RefLen    int64
	// Verify additionally checks every section CRC on the mmap path
	// (the copy path always verifies). Costs a full file scan.
	Verify bool
	// NoMmap forces the portable read + decode-copy path.
	NoMmap bool
}

// LoadIndexFile opens a persisted index. On little-endian unix hosts
// the file is mmap'd and the slot arrays are zero-copy views of the
// mapping (close the index to release it); elsewhere — or with NoMmap —
// the file is read and decoded with full CRC verification. Every
// failure wraps one of the typed sentinel errors.
func LoadIndexFile(path string, opt LoadOptions) (*LargeIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("kmer: %s: %w", path, err)
	}
	size := st.Size()
	blockLen := int64(ixPage)
	if size < blockLen {
		blockLen = size
	}
	block := make([]byte, blockLen)
	if _, err := io.ReadFull(f, block); err != nil {
		return nil, fmt.Errorf("%s: %w: header block", path, ErrTruncated)
	}
	h, err := parseIndexHeader(block)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	lay, err := layoutFor(h)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case size < lay.size:
		return nil, fmt.Errorf("%s: %w: %d bytes of %d", path, ErrTruncated, size, lay.size)
	case size > lay.size:
		return nil, fmt.Errorf("%s: %w: %d trailing bytes", path, ErrCorrupt, size-lay.size)
	}
	if err := checkRef(h, opt); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !opt.NoMmap && mmapSupported && hostLittle {
		if b, merr := mmapFile(f, size); merr == nil {
			ix, err := indexFromBytes(h, lay, b, b, opt.Verify)
			if err != nil {
				munmap(b)
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return ix, nil
		}
		// mmap unavailable for this file: fall through to the copy path.
	}
	data := make([]byte, size)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("kmer: %s: %w", path, err)
	}
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("%s: %w: body", path, ErrTruncated)
	}
	ix, err := indexFromBytes(h, lay, data, nil, true)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}

// checkRef validates the reference fingerprint against expectations.
func checkRef(h *indexHeader, opt LoadOptions) error {
	if opt.RefLen == 0 && opt.RefDigest == ([32]byte{}) {
		return nil
	}
	if h.refDigest != opt.RefDigest {
		return fmt.Errorf("%w: reference digest %x != %x", ErrRefMismatch, h.refDigest[:8], opt.RefDigest[:8])
	}
	if h.refLen != opt.RefLen {
		return fmt.Errorf("%w: reference length %d != %d", ErrRefMismatch, h.refLen, opt.RefLen)
	}
	return nil
}

// DecodeIndex parses an index from an in-memory image with full
// section CRC verification — the portable load path and the fuzz
// surface. The returned index may alias data; callers must not mutate
// it afterwards.
func DecodeIndex(data []byte) (*LargeIndex, error) {
	h, err := parseIndexHeader(data)
	if err != nil {
		return nil, err
	}
	lay, err := layoutFor(h)
	if err != nil {
		return nil, err
	}
	switch {
	case int64(len(data)) < lay.size:
		return nil, fmt.Errorf("%w: %d bytes of %d", ErrTruncated, len(data), lay.size)
	case int64(len(data)) > lay.size:
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, int64(len(data))-lay.size)
	}
	return indexFromBytes(h, lay, data, nil, true)
}

// indexFromBytes builds the index over an on-disk image (an mmap or a
// read buffer), optionally CRC-verifying sections, and always
// validating the directory structure.
func indexFromBytes(h *indexHeader, lay indexLayout, data, mapped []byte, verify bool) (*LargeIndex, error) {
	sl := data[lay.slotOff : lay.slotOff+(h.nParts+1)*8]
	kb := data[lay.keys : lay.keys+h.nSlots*8]
	sb := data[lay.starts : lay.starts+h.nSlots*4]
	cb := data[lay.counts : lay.counts+h.nSlots*4]
	pb := data[lay.positions : lay.positions+h.nPos*4]
	if verify {
		for _, s := range []struct {
			name string
			b    []byte
			want uint32
		}{
			{"slotOff", sl, h.crcSlotOff}, {"keys", kb, h.crcKeys},
			{"starts", sb, h.crcStarts}, {"counts", cb, h.crcCounts},
			{"positions", pb, h.crcPos},
		} {
			if crcOf(s.b) != s.want {
				return nil, fmt.Errorf("%w: %s section", ErrChecksum, s.name)
			}
		}
	}
	ix := &LargeIndex{
		k: h.k, seqLen: int(h.seqLen), maxStore: h.maxStore, partBits: h.partBits,
		slotOff: decI64(sl), keys: decU64(kb),
		starts: decI32(sb), counts: decI32(cb), positions: decI32(pb),
		mapped: mapped,
	}
	// Directory structure: monotone, power-of-two (or empty) partition
	// regions covering exactly the slot array. With this validated,
	// span's probe arithmetic stays inside the arrays for any
	// section contents.
	if ix.slotOff[0] != 0 || ix.slotOff[h.nParts] != h.nSlots {
		return nil, fmt.Errorf("%w: directory bounds", ErrCorrupt)
	}
	for p := int64(0); p < h.nParts; p++ {
		size := ix.slotOff[p+1] - ix.slotOff[p]
		if size < 0 || (size != 0 && size&(size-1) != 0) {
			return nil, fmt.Errorf("%w: partition %d size %d", ErrCorrupt, p, size)
		}
	}
	return ix, nil
}

// ReadIndexInfo reads and validates only the header of a persisted
// index — cheap inspection for CLIs (adopting the stored seed length,
// explaining mismatches) without loading the sections.
func ReadIndexInfo(path string) (IndexInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return IndexInfo{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return IndexInfo{}, fmt.Errorf("kmer: %s: %w", path, err)
	}
	blockLen := int64(ixPage)
	if st.Size() < blockLen {
		blockLen = st.Size()
	}
	block := make([]byte, blockLen)
	if _, err := io.ReadFull(f, block); err != nil {
		return IndexInfo{}, fmt.Errorf("%s: %w: header block", path, ErrTruncated)
	}
	h, err := parseIndexHeader(block)
	if err != nil {
		return IndexInfo{}, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := layoutFor(h); err != nil {
		return IndexInfo{}, fmt.Errorf("%s: %w", path, err)
	}
	return IndexInfo{
		RefDigest: h.refDigest, RefLen: h.refLen, SeqLen: h.seqLen,
		K: h.k, MaxStore: h.maxStore, Slots: h.nSlots, Positions: h.nPos,
		FileBytes: st.Size(),
	}, nil
}

// Close releases the mmap backing of a file-loaded index; it is a
// no-op for heap-built indexes. The index must not be used afterwards.
func (ix *LargeIndex) Close() error {
	if ix.mapped == nil {
		return nil
	}
	b := ix.mapped
	ix.mapped = nil
	ix.slotOff, ix.keys, ix.starts, ix.counts, ix.positions = nil, nil, nil, nil, nil
	return munmap(b)
}
