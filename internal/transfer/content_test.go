package transfer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"spnet/internal/content"
	"spnet/internal/gnutella"
)

func TestFillContentDeterministicAndWindowed(t *testing.T) {
	const title = "free jazz classics"
	whole := make([]byte, 3*DefaultChunkSize)
	FillContent(title, 0, whole)

	again := make([]byte, len(whole))
	FillContent(title, 0, again)
	if !bytes.Equal(whole, again) {
		t.Fatal("same (title, offset, len) produced different bytes")
	}

	// Any window must agree with the whole, also one that starts mid-block,
	// crosses a 16-byte keystream block or a 64 KiB chunk boundary, or is
	// filled into a dirty buffer.
	for _, w := range []struct{ off, n int }{
		{357, 100}, {15, 2}, {65535, 2}, {65535, 40}, {65536 + 15, 17}, {65536 + 15, DefaultChunkSize},
	} {
		win := bytes.Repeat([]byte{0xAA}, w.n)
		FillContent(title, int64(w.off), win)
		if !bytes.Equal(win, whole[w.off:w.off+w.n]) {
			t.Errorf("window [%d, %d) disagrees with the whole file", w.off, w.off+w.n)
		}
	}

	other := make([]byte, 1000)
	FillContent(title+"!", 0, other)
	if bytes.Equal(whole[:1000], other) {
		t.Error("different titles produced identical bytes")
	}
}

// TestFillContentKnownAnswer pins the content definition: the first 32
// bytes are the AES-128-CTR keystream under sha256(title)[:16] from counter
// 0, as an independent AES implementation computes them. Every ContentHash,
// and so every fleet's agreement on what a file is, hangs on these bytes.
func TestFillContentKnownAnswer(t *testing.T) {
	got := make([]byte, 32)
	FillContent("free jazz classics", 0, got)
	const want = "a51cc96c3cb087374eb9408045d9a32a4cb33f519d81a8ffeffc1c3a86387fa9"
	if hex.EncodeToString(got) != want {
		t.Errorf("content at offset 0 = %x, want %s", got, want)
	}
}

func TestContentSizeBounds(t *testing.T) {
	lib := content.DefaultLibrary()
	_ = lib
	for _, title := range []string{"a", "b", "some longer title here"} {
		s := ContentSize(title, 100, 200)
		if s < 100 || s > 200 {
			t.Errorf("ContentSize(%q) = %d, want in [100, 200]", title, s)
		}
		if s != ContentSize(title, 100, 200) {
			t.Errorf("ContentSize(%q) not deterministic", title)
		}
	}
	if s := ContentSize("x", 500, 500); s != 500 {
		t.Errorf("degenerate range: got %d, want 500", s)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := BuildManifest("title words", 100_000, 1<<12)
	if got, want := m.NumChunks(), 25; got != want {
		t.Fatalf("NumChunks = %d, want %d", got, want)
	}
	if got := m.ChunkLen(24); got != 100_000-24*(1<<12) {
		t.Errorf("last ChunkLen = %d", got)
	}
	enc := m.Encode()
	if len(enc) != ManifestLen(25) {
		t.Fatalf("encoded %d bytes, want %d", len(enc), ManifestLen(25))
	}
	dec, err := DecodeManifest(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.FileSize != m.FileSize || dec.ChunkSize != m.ChunkSize || len(dec.Hashes) != len(m.Hashes) {
		t.Fatalf("round trip mismatch: %+v vs %+v", dec, m)
	}
	for i := range m.Hashes {
		if dec.Hashes[i] != m.Hashes[i] {
			t.Fatalf("hash %d mismatch", i)
		}
	}
}

func TestDecodeManifestRejectsDamage(t *testing.T) {
	m := BuildManifest("t", 10_000, 1<<10)
	enc := m.Encode()
	cases := map[string][]byte{
		"truncated": enc[:len(enc)-1],
		"trailing":  append(append([]byte(nil), enc...), 0),
		"short":     enc[:8],
		// Flip a high FileSize byte: the implied chunk count no longer matches
		// the NumChunks field. (A low-byte flip could keep the count intact.)
		"inconsistent size": func() []byte { b := append([]byte(nil), enc...); b[2] ^= 0xFF; return b }(),
	}
	for name, buf := range cases {
		if _, err := DecodeManifest(buf); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestManifestHashesMatchContent(t *testing.T) {
	const title, size, chunk = "hash check title", 10_000, 1 << 10
	m := BuildManifest(title, size, chunk)
	for i := 0; i < m.NumChunks(); i++ {
		buf := make([]byte, m.ChunkLen(i))
		FillContent(title, int64(i)*chunk, buf)
		if sha256.Sum256(buf) != m.Hashes[i] {
			t.Fatalf("chunk %d hash mismatch", i)
		}
	}
}

func TestStoreChunkData(t *testing.T) {
	s := NewStore(StoreOptions{ChunkSize: 1 << 10, MinFileSize: 3000, MaxFileSize: 5000})
	f := s.Add("store test title")
	if f.Size < 3000 || f.Size > 5000 {
		t.Fatalf("file size %d out of bounds", f.Size)
	}
	man, ok := s.Manifest(f.Index)
	if !ok {
		t.Fatal("manifest missing")
	}
	if man.NumChunks() != f.NumChunks(s.ChunkSize()) {
		t.Errorf("NumChunks disagree: %d vs %d", man.NumChunks(), f.NumChunks(s.ChunkSize()))
	}
	// Manifest sentinel returns the encoded manifest.
	data, _, ok := s.ChunkData(f.Index, ManifestChunk)
	if !ok {
		t.Fatal("manifest chunk not served")
	}
	if _, err := DecodeManifest(data); err != nil {
		t.Fatalf("served manifest does not decode: %v", err)
	}
	// Every data chunk verifies against the manifest.
	for i := 0; i < man.NumChunks(); i++ {
		data, _, ok := s.ChunkData(f.Index, uint32(i))
		if !ok {
			t.Fatalf("chunk %d not served", i)
		}
		if sha256.Sum256(data) != man.Hashes[i] {
			t.Fatalf("chunk %d fails its manifest hash", i)
		}
	}
	// Out-of-range file and chunk are refused.
	if _, _, ok := s.ChunkData(f.Index, uint32(man.NumChunks())); ok {
		t.Error("out-of-range chunk served")
	}
	if _, _, ok := s.ChunkData(99, 0); ok {
		t.Error("unknown file served")
	}
}

// TestStoreFillChunk: one ChunkData reused across every chunk of a file,
// the manifest and the short last chunk included, carries each chunk's bytes
// and the file's shape, and a refused request leaves it untouched.
func TestStoreFillChunk(t *testing.T) {
	s := NewStore(StoreOptions{ChunkSize: 1 << 10, MinFileSize: 3000, MaxFileSize: 5000})
	f := s.Add("store test title")
	man, _ := s.Manifest(f.Index)
	if f.Size%int64(s.ChunkSize()) == 0 {
		t.Fatalf("file size %d is a whole number of chunks; the short last chunk goes untested", f.Size)
	}
	chunks := []uint32{ManifestChunk}
	for c := range man.NumChunks() {
		chunks = append(chunks, uint32(c))
	}
	var cd gnutella.ChunkData
	for _, c := range chunks {
		if !s.FillChunk(f.Index, c, &cd) {
			t.Fatalf("chunk %d not filled", c)
		}
		if cd.FileIndex != f.Index || cd.Chunk != c || cd.TotalChunks != uint32(man.NumChunks()) || cd.FileSize != uint64(f.Size) {
			t.Fatalf("chunk %d: file %d, chunk %d, %d chunks, %d bytes", c, cd.FileIndex, cd.Chunk, cd.TotalChunks, cd.FileSize)
		}
		if c == ManifestChunk {
			if !bytes.Equal(cd.Data, man.Encode()) {
				t.Fatal("manifest chunk is not the encoded manifest")
			}
		} else if sha256.Sum256(cd.Data) != man.Hashes[c] {
			t.Fatalf("chunk %d fails its manifest hash", c)
		}
	}
	before := cd
	if s.FillChunk(f.Index, uint32(man.NumChunks()), &cd) || s.FillChunk(99, 0, &cd) {
		t.Error("out-of-range chunk or unknown file filled")
	}
	if cd.Chunk != before.Chunk || &cd.Data[0] != &before.Data[0] {
		t.Error("a refused request changed the ChunkData")
	}
}

// TestServeChunkAllocs guards the serving side's allocations: filling a
// reused ChunkData with a 64 KiB chunk and encoding it allocates only the
// cipher state, never the chunk or its frame.
func TestServeChunkAllocs(t *testing.T) {
	s := NewStore(StoreOptions{MinFileSize: 4 << 20, MaxFileSize: 4 << 20})
	f := s.Add("bench payload")
	var cd gnutella.ChunkData
	serve := func(c uint32) {
		s.FillChunk(f.Index, c, &cd)
		if _, err := cd.Encode(); err != nil {
			t.Fatal(err)
		}
	}
	serve(0) // sizes the frame
	const runs = 64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		serve(uint32(i))
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per > 2<<10 {
		t.Errorf("filling and encoding a 64 KiB chunk allocates %d B, want at most 2 KiB", per)
	}
}

func TestStoreAddSampledDeterministic(t *testing.T) {
	lib := content.DefaultLibrary()
	a := NewStore(StoreOptions{})
	b := NewStore(StoreOptions{})
	a.AddSampled(lib, 5, 7)
	b.AddSampled(lib, 5, 7)
	fa, fb := a.Files(), b.Files()
	if len(fa) != 5 || len(fb) != 5 {
		t.Fatalf("got %d / %d files, want 5", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("file %d differs across equal seeds: %+v vs %+v", i, fa[i], fb[i])
		}
	}
}

var benchSink []byte

func BenchmarkFillContent(b *testing.B) {
	buf := make([]byte, DefaultChunkSize)
	b.SetBytes(DefaultChunkSize)
	for i := 0; i < b.N; i++ {
		FillContent("bench payload", int64(i)*DefaultChunkSize, buf)
	}
}

// BenchmarkStoreChunkData is the serving side's cost per 64 KiB chunk: the
// allocation and the content fill behind every ChunkData frame.
func BenchmarkStoreChunkData(b *testing.B) {
	s := NewStore(StoreOptions{MinFileSize: 4 << 20, MaxFileSize: 4 << 20})
	f := s.Add("bench payload")
	chunks := uint32(f.NumChunks(s.ChunkSize()))
	b.SetBytes(int64(s.ChunkSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _, _ = s.ChunkData(f.Index, uint32(i)%chunks)
	}
}

// BenchmarkServeChunk is what a transfer link pays per 64 KiB chunk: the
// content filled into the link's one reused ChunkData and its frame encoded
// in place.
func BenchmarkServeChunk(b *testing.B) {
	s := NewStore(StoreOptions{MinFileSize: 4 << 20, MaxFileSize: 4 << 20})
	f := s.Add("bench payload")
	chunks := uint32(f.NumChunks(s.ChunkSize()))
	var cd gnutella.ChunkData
	b.SetBytes(int64(s.ChunkSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FillChunk(f.Index, uint32(i)%chunks, &cd)
		benchSink, _ = cd.Encode()
	}
}
