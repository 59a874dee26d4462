package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// WriteCSV writes a report's tables and series as CSV files under dir
// (created if needed), one file per artifact, and returns the paths written.
// Series files have columns x,y,yerr and one file per series; table files
// mirror their printed columns. File names are derived from the report id
// and the table/series labels.
func WriteCSV(r *Report, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: creating %s: %w", dir, err)
	}
	var paths []string
	write := func(name string, header []string, rows [][]string) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("experiments: creating %s: %w", path, err)
		}
		w := csv.NewWriter(f)
		if err := w.Write(header); err != nil {
			f.Close()
			return err
		}
		if err := w.WriteAll(rows); err != nil {
			f.Close()
			return err
		}
		w.Flush()
		if err := w.Error(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		paths = append(paths, path)
		return nil
	}

	for i, tbl := range r.Tables {
		name := fmt.Sprintf("%s_table%d.csv", r.ID, i+1)
		if err := write(name, tbl.Columns, tbl.Rows); err != nil {
			return paths, err
		}
	}
	for _, s := range r.Series {
		rows := make([][]string, len(s.X))
		for i := range s.X {
			yerr := ""
			if s.YErr != nil {
				yerr = strconv.FormatFloat(s.YErr[i], 'g', -1, 64)
			}
			rows[i] = []string{
				strconv.FormatFloat(s.X[i], 'g', -1, 64),
				strconv.FormatFloat(s.Y[i], 'g', -1, 64),
				yerr,
			}
		}
		name := fmt.Sprintf("%s_%s.csv", r.ID, slug(s.Label))
		if err := write(name, []string{"x", "y", "yerr"}, rows); err != nil {
			return paths, err
		}
	}
	return paths, nil
}

// CSVStream writes sweep rows to per-stage CSV files incrementally, flushing
// to disk after every row, so an interrupted run (crash, ^C, power loss)
// keeps every sweep point that had completed. Plug its Row method into
// Params.RowSink; the final WriteCSV of the full
// report remains authoritative and will simply overwrite matching files with
// identical content.
//
// Each distinct stage gets its own file, <id>_<slug(stage)>.csv, with the
// stage's column header as the first record. Row is safe for concurrent use.
type CSVStream struct {
	id  string
	dir string

	mu    sync.Mutex
	files map[string]*os.File
	ws    map[string]*csv.Writer
	paths []string
	err   error // first write error, surfaced by Close
}

// NewCSVStream creates dir if needed and returns a stream for the given
// report id.
func NewCSVStream(id, dir string) (*CSVStream, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: creating %s: %w", dir, err)
	}
	return &CSVStream{
		id:    id,
		dir:   dir,
		files: make(map[string]*os.File),
		ws:    make(map[string]*csv.Writer),
	}, nil
}

// Row appends one completed sweep row to the stage's file, creating it (with
// the header) on first use, and flushes so the row is durable immediately.
// Errors are latched and reported by Close — a failing disk must not abort
// the experiment producing the rows.
func (s *CSVStream) Row(stage string, columns, row []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.ws[stage]
	if !ok {
		path := filepath.Join(s.dir, fmt.Sprintf("%s_%s.csv", s.id, slug(stage)))
		f, err := os.Create(path)
		if err != nil {
			s.setErr(err)
			return
		}
		w = csv.NewWriter(f)
		s.files[stage] = f
		s.ws[stage] = w
		s.paths = append(s.paths, path)
		if err := w.Write(columns); err != nil {
			s.setErr(err)
			return
		}
	}
	if err := w.Write(row); err != nil {
		s.setErr(err)
		return
	}
	w.Flush()
	s.setErr(w.Error())
}

func (s *CSVStream) setErr(err error) {
	if err != nil && s.err == nil {
		s.err = err
	}
}

// Close flushes and closes every stage file, returning the paths written and
// the first error encountered across the stream's lifetime.
func (s *CSVStream) Close() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for stage, w := range s.ws {
		w.Flush()
		s.setErr(w.Error())
		s.setErr(s.files[stage].Close())
	}
	s.ws = make(map[string]*csv.Writer)
	s.files = make(map[string]*os.File)
	return s.paths, s.err
}

// slug converts a free-form label to a safe file-name fragment.
func slug(label string) string {
	var b strings.Builder
	lastDash := false
	for _, r := range strings.ToLower(label) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		default:
			if !lastDash && b.Len() > 0 {
				b.WriteByte('-')
				lastDash = true
			}
		}
	}
	return strings.TrimRight(b.String(), "-")
}
