// Package transfer is the content download plane: it turns QueryHit results
// into chunked, resumable, multi-source file transfers over the live network.
// A serving super-peer holds a Store of deterministic content keyed by
// internal/content titles, each title's bytes an AES-CTR keystream
// (FillContent); a downloader fetches the file's Manifest (chunk hashes) and
// then pulls chunks from every source in parallel under per-source
// outstanding windows, verifying each chunk against the manifest, debiting
// forged chunks through internal/trust, and resuming from its chunk bitmap
// when a source dies. Transfer traffic is metered as metrics.ClassTransfer —
// a load class of its own beside the paper's Table 2 taxonomy, which stops at
// the QueryHit.
package transfer

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
)

// Content bytes are an AES-128-CTR keystream: with key sha256(title)[:16],
// bytes [16i, 16i+16) of a file are AES(key, i), i a 128-bit big-endian
// counter. Every node seeded with the same title serves bit-identical bytes,
// so tests and experiments can verify whole-file hashes against locally
// computed ground truth without shipping any real payload.

// FillContent writes the deterministic content of title at byte offset off
// into buf. Any (off, len) window of the same title yields the same bytes.
func FillContent(title string, off int64, buf []byte) {
	key := sha256.Sum256([]byte(title))
	block, _ := aes.NewCipher(key[:16]) // a 16-byte key is always valid
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[8:], uint64(off)/aes.BlockSize)
	ctr := cipher.NewCTR(block, iv[:])
	skip := uint64(off) % aes.BlockSize
	var pad [aes.BlockSize]byte
	ctr.XORKeyStream(pad[:skip], pad[:skip]) // discard the block's bytes before off
	clear(buf)
	ctr.XORKeyStream(buf, buf)
}

// ContentSize derives a file's deterministic size in [min, max] from its
// title, so a title alone pins both the bytes and how many of them there are.
func ContentSize(title string, min, max int64) int64 {
	if max < min {
		max = min
	}
	if min < 1 {
		min = 1
	}
	h := sha256.Sum256([]byte("size:" + title))
	span := uint64(max-min) + 1
	return min + int64(binary.LittleEndian.Uint64(h[:8])%span)
}

// ContentHash returns the SHA-256 of the whole deterministic content of
// title at the given size — the ground truth a completed download's Result
// hash must equal.
func ContentHash(title string, size int64) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 64<<10)
	var off int64
	for off < size {
		n := size - off
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		FillContent(title, off, buf[:n])
		h.Write(buf[:n])
		off += n
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
