// Package index implements the super-peer's client index as the paper
// describes it: "if the shared data are files and queries are keyword
// searches over the file title, then the super-peer may keep inverted lists
// over the titles of files owned by its clients. This index must hold
// sufficient information to answer all queries" (Section 3.2).
//
// The index maps each title term to the set of (owner, file) postings
// containing it, supports the three maintenance operations the protocol
// needs — adding a joining client's collection, removing a leaving client's
// metadata, and applying single-item updates — and answers conjunctive
// keyword queries with the owner of every matching file, which is exactly
// what a Response message carries (results plus the address of each client
// whose collection produced one).
package index

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// DocID identifies one file in the index: the owning peer and the owner's
// file index (the Gnutella result record's file index).
type DocID struct {
	Owner int
	File  uint32
}

// key packs a DocID for map storage.
func (d DocID) key() uint64 { return uint64(uint32(d.Owner))<<32 | uint64(d.File) }

func unkey(k uint64) DocID {
	return DocID{Owner: int(uint32(k >> 32)), File: uint32(k)}
}

// Index is an inverted index over file titles. The zero value is not usable;
// call New.
type Index struct {
	postings map[string]map[uint64]struct{} // term -> set of packed DocIDs
	docs     map[uint64]entry               // packed DocID -> its terms and title
	byOwner  map[int]map[uint64]struct{}    // owner -> its packed DocIDs
}

// entry is one indexed file: its distinct terms in title order, and the title
// a match reports, those terms joined by single spaces. The title is built
// once, when the file is added, not per match.
type entry struct {
	terms []string
	title string
}

// New returns an empty index.
func New() *Index {
	return &Index{
		postings: make(map[string]map[uint64]struct{}),
		docs:     make(map[uint64]entry),
		byOwner:  make(map[int]map[uint64]struct{}),
	}
}

// NumDocs returns the number of indexed files — the super-peer's x_tot.
func (ix *Index) NumDocs() int { return len(ix.docs) }

// NumTerms returns the number of distinct terms with non-empty postings.
func (ix *Index) NumTerms() int { return len(ix.postings) }

// OwnerDocs returns the number of files indexed for one owner.
func (ix *Index) OwnerDocs(owner int) int { return len(ix.byOwner[owner]) }

// Add indexes one file under its title terms. Duplicate terms in a title are
// indexed once. Re-adding an existing (owner, file) replaces its terms, as a
// metadata modification does. An empty term list removes the file.
func (ix *Index) Add(doc DocID, terms []string) error {
	if doc.Owner < 0 {
		return fmt.Errorf("index: negative owner %d", doc.Owner)
	}
	k := doc.key()
	if _, exists := ix.docs[k]; exists {
		ix.removeKey(k)
	}
	if len(terms) == 0 {
		return nil
	}
	dedup := make([]string, 0, len(terms))
	seen := make(map[string]bool, len(terms))
	for _, t := range terms {
		if t == "" {
			return fmt.Errorf("index: empty term in title for %+v", doc)
		}
		if !seen[t] {
			seen[t] = true
			dedup = append(dedup, t)
		}
	}
	ix.docs[k] = entry{terms: dedup, title: strings.Join(dedup, " ")}
	for _, t := range dedup {
		set := ix.postings[t]
		if set == nil {
			set = make(map[uint64]struct{})
			ix.postings[t] = set
		}
		set[k] = struct{}{}
	}
	owned := ix.byOwner[doc.Owner]
	if owned == nil {
		owned = make(map[uint64]struct{})
		ix.byOwner[doc.Owner] = owned
	}
	owned[k] = struct{}{}
	return nil
}

// Remove deletes one file from the index. Removing an absent file is a
// no-op, mirroring an idempotent delete update.
func (ix *Index) Remove(doc DocID) { ix.removeKey(doc.key()) }

func (ix *Index) removeKey(k uint64) {
	d, ok := ix.docs[k]
	if !ok {
		return
	}
	delete(ix.docs, k)
	for _, t := range d.terms {
		set := ix.postings[t]
		delete(set, k)
		if len(set) == 0 {
			delete(ix.postings, t)
		}
	}
	owner := unkey(k).Owner
	if owned := ix.byOwner[owner]; owned != nil {
		delete(owned, k)
		if len(owned) == 0 {
			delete(ix.byOwner, owner)
		}
	}
}

// RemoveOwner drops every file an owner shares — the super-peer's action
// when a client leaves ("when a client leaves, its super-peer will remove
// its metadata from the index"). It returns the number of files removed.
func (ix *Index) RemoveOwner(owner int) int {
	owned := ix.byOwner[owner]
	n := len(owned)
	keys := make([]uint64, 0, n)
	for k := range owned {
		keys = append(keys, k)
	}
	for _, k := range keys {
		ix.removeKey(k)
	}
	return n
}

// Match is one search hit: the file, its distinct title terms, and Title,
// those terms joined by single spaces.
type Match struct {
	Doc   DocID
	Terms []string
	Title string
}

// Search answers a conjunctive keyword query: every returned file's title
// contains all query terms. Results are sorted by (owner, file) so output is
// deterministic. A query with no terms matches nothing.
func (ix *Index) Search(terms []string) []Match { return ix.AppendSearch(nil, terms) }

// AppendSearch is Search appending its matches to dst, so a caller that
// searches again and again can keep one slice for every search.
func (ix *Index) AppendSearch(dst []Match, terms []string) []Match {
	if len(terms) == 0 {
		return dst
	}
	// Intersect starting from the rarest term.
	sets := make([]map[uint64]struct{}, 0, len(terms))
	seen := make(map[string]bool, len(terms))
	for _, t := range terms {
		if seen[t] {
			continue
		}
		seen[t] = true
		set, ok := ix.postings[t]
		if !ok {
			return dst
		}
		sets = append(sets, set)
	}
	slices.SortFunc(sets, func(a, b map[uint64]struct{}) int { return cmp.Compare(len(a), len(b)) })
	if len(sets) == 1 {
		dst = slices.Grow(dst, len(sets[0])) // every posting matches
	}
	start := len(dst)
outer:
	for k := range sets[0] {
		for _, set := range sets[1:] {
			if _, ok := set[k]; !ok {
				continue outer
			}
		}
		d := ix.docs[k]
		dst = append(dst, Match{Doc: unkey(k), Terms: d.terms, Title: d.title})
	}
	slices.SortFunc(dst[start:], func(a, b Match) int { return cmp.Compare(a.Doc.key(), b.Doc.key()) })
	return dst
}

// CountMatches returns the number of matching files and the number of
// distinct owners with at least one match — the (#results, #addr) pair a
// Response message is priced by — without materializing the result list.
func (ix *Index) CountMatches(terms []string) (results, owners int) {
	if len(terms) == 0 {
		return 0, 0
	}
	sets := make([]map[uint64]struct{}, 0, len(terms))
	seen := make(map[string]bool, len(terms))
	for _, t := range terms {
		if seen[t] {
			continue
		}
		seen[t] = true
		set, ok := ix.postings[t]
		if !ok {
			return 0, 0
		}
		sets = append(sets, set)
	}
	sort.Slice(sets, func(i, j int) bool { return len(sets[i]) < len(sets[j]) })
	ownerSet := make(map[int]struct{})
outer:
	for k := range sets[0] {
		for _, set := range sets[1:] {
			if _, ok := set[k]; !ok {
				continue outer
			}
		}
		results++
		ownerSet[unkey(k).Owner] = struct{}{}
	}
	return results, len(ownerSet)
}
