package transfer

import (
	"strings"

	"spnet/internal/content"
	"spnet/internal/gnutella"
	"spnet/internal/stats"
)

// Default store shape: chunk and file-size bounds chosen so any file fits a
// single manifest frame and downloads stay in the tens-of-chunks regime.
const (
	DefaultChunkSize   = 64 << 10  // 64 KiB
	DefaultMinFileSize = 256 << 10 // 256 KiB
	DefaultMaxFileSize = 4 << 20   // 4 MiB
)

// File is one downloadable item in a Store.
type File struct {
	Index uint32
	Title string
	Size  int64
}

// NumChunks returns how many chunks the file splits into at the store's
// chunk size.
func (f File) NumChunks(chunkSize int) int { return chunkCount(f.Size, chunkSize) }

// StoreOptions shapes a Store. Zero values select the defaults above.
type StoreOptions struct {
	// ChunkSize is the chunk width served, 1..gnutella.MaxChunkLen.
	ChunkSize int
	// MinFileSize / MaxFileSize bound the per-title deterministic file size.
	MinFileSize int64
	MaxFileSize int64
}

func (o *StoreOptions) setDefaults() {
	if o.ChunkSize <= 0 || o.ChunkSize > gnutella.MaxChunkLen {
		o.ChunkSize = DefaultChunkSize
	}
	if o.MinFileSize <= 0 {
		o.MinFileSize = DefaultMinFileSize
	}
	if o.MaxFileSize < o.MinFileSize {
		o.MaxFileSize = DefaultMaxFileSize
	}
	if o.MaxFileSize < o.MinFileSize {
		o.MaxFileSize = o.MinFileSize
	}
	// Keep every file within one manifest frame.
	if max := int64(maxManifestChunks) * int64(o.ChunkSize); o.MaxFileSize > max {
		o.MaxFileSize = max
	}
}

// Store is a node's served content: titles mapped to deterministic bytes,
// sized and hashed up front. Seed it fully (Add / AddSampled) before handing
// it to a node; after that every method is a pure concurrent-safe read, so
// one Store can back a whole fleet of nodes serving identical content —
// which is exactly what makes multi-source downloads possible.
type Store struct {
	opts      StoreOptions
	files     []File
	manifests []*Manifest
}

// NewStore builds an empty store.
func NewStore(opts StoreOptions) *Store {
	opts.setDefaults()
	return &Store{opts: opts}
}

// ChunkSize returns the chunk width this store serves.
func (s *Store) ChunkSize() int { return s.opts.ChunkSize }

// Add registers a title, deriving its size from the title and precomputing
// its manifest. File indices are assigned sequentially from 0.
func (s *Store) Add(title string) File {
	f := File{
		Index: uint32(len(s.files)),
		Title: title,
		Size:  ContentSize(title, s.opts.MinFileSize, s.opts.MaxFileSize),
	}
	s.files = append(s.files, f)
	s.manifests = append(s.manifests, BuildManifest(title, f.Size, s.opts.ChunkSize))
	return f
}

// AddSampled adds n titles drawn from the library's title distribution under
// the given seed: the idiom for seeding a fleet with a shared catalog.
func (s *Store) AddSampled(lib *content.Library, n int, seed uint64) {
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		s.Add(strings.Join(lib.SampleTitle(rng), " "))
	}
}

// Files returns the catalog in index order. Callers must not mutate it.
func (s *Store) Files() []File { return s.files }

// Lookup returns the file registered under index.
func (s *Store) Lookup(index uint32) (File, bool) {
	if int64(index) >= int64(len(s.files)) {
		return File{}, false
	}
	return s.files[index], true
}

// Manifest returns the precomputed manifest for index.
func (s *Store) Manifest(index uint32) (*Manifest, bool) {
	if int64(index) >= int64(len(s.manifests)) {
		return nil, false
	}
	return s.manifests[index], true
}

// ChunkData materializes chunk bytes for (index, chunk). The manifest
// sentinel returns the encoded manifest. ok is false when the file or chunk
// does not exist.
func (s *Store) ChunkData(index, chunk uint32) (data []byte, m *Manifest, ok bool) {
	f, found := s.Lookup(index)
	if !found {
		return nil, nil, false
	}
	m = s.manifests[index]
	if chunk == ManifestChunk {
		return m.Encode(), m, true
	}
	if int64(chunk) >= int64(m.NumChunks()) {
		return nil, nil, false
	}
	data = make([]byte, m.ChunkLen(int(chunk)))
	FillContent(f.Title, int64(chunk)*int64(s.opts.ChunkSize), data)
	return data, m, true
}
