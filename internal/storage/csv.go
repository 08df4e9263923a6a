package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// inferRows is how many data rows ReadCSV looks at to infer kinds.
	inferRows = 100
	// batchRows is how many records ReadCSV reads before it parses them,
	// and batchesInFlight how many such batches a load keeps: read ahead
	// of the column workers, or parsed by one and not yet by another.
	batchRows       = 1024
	batchesInFlight = 4
)

// ReadCSV loads a table from CSV. The first record is the header. If
// schema is nil, column kinds are inferred from up to the first 100
// data rows (preference INT > FLOAT > BOOL > TEXT); otherwise the
// provided schema must match the header width and is used as-is.
// Records stream into the table's vectors in batches of recycled
// buffers, and a TEXT value enters its column's dictionary as a copy,
// so that it does not keep its whole CSV line alive. From the second
// batch on, one goroutine reads while up to GOMAXPROCS column workers,
// each owning a disjoint set of columns, parse; every vector is still
// written by one goroutine in row order, so the table — dictionaries
// and codes included — is a serial load's. So is the error: the cell
// of the lowest row, then the lowest column, that does not parse, and
// a read error only when every row before it parsed. A file of one
// batch or less, or GOMAXPROCS 1, loads with no goroutine. The vectors
// are sealed at the end.
func ReadCSV(name string, r io.Reader, schema Schema) (*Table, error) {
	return readCSV(name, r, schema, batchRows, runtime.GOMAXPROCS(0))
}

// readCSV is ReadCSV with the batch size and the worker count given.
func readCSV(name string, r io.Reader, schema Schema, rows, workers int) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("storage: csv for %s has no header", name)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: reading csv for %s: %w", name, err)
	}
	var ahead [][]string
	if schema == nil {
		for len(ahead) < inferRows {
			rec, err := cr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("storage: reading csv for %s: %w", name, err)
			}
			ahead = append(ahead, rec)
		}
		schema = make(Schema, len(header))
		samples := make([]string, len(ahead))
		for c, h := range header {
			for i, rec := range ahead {
				samples[i] = rec[c]
			}
			schema[c] = ColumnDef{Name: h, Kind: InferKind(samples)}
		}
	} else if len(schema) != len(header) {
		return nil, fmt.Errorf("storage: schema has %d columns, csv header has %d", len(schema), len(header))
	}
	cr.ReuseRecord = true
	l := &csvLoad{name: name, cr: cr, ahead: ahead, next: 1, rows: rows, t: NewTable(name, schema)}
	b := l.newBatch()
	err = l.fill(b)
	workers = min(workers, len(schema))
	if err == nil && workers > 1 {
		err = l.fanOut(b, workers)
	} else {
		err = l.inline(b, err)
	}
	if err != nil {
		return nil, err
	}
	return l.t, nil
}

// csvLoad is one load past the header: where its records come from and
// the table they enter.
type csvLoad struct {
	name  string
	cr    *csv.Reader
	ahead [][]string // the records inference read, served first
	next  int        // the row number of the next record, from 1
	rows  int        // records per batch
	t     *Table
}

// csvBatch is a run of consecutive records, their cells row-major.
type csvBatch struct {
	first int // the row number of the first record
	n     int // records held
	cells []string
	// left counts the column workers yet to finish with the batch; the
	// last one hands it back to be refilled.
	left atomic.Int32
}

// cellError is the first cell a set of columns failed to parse.
type cellError struct {
	row, col int
	err      error
}

func (l *csvLoad) newBatch() *csvBatch {
	return &csvBatch{cells: make([]string, l.rows*len(l.t.cols))}
}

// fill reads up to a batch of records into b. It returns io.EOF at the
// end of the input, and a read error once b holds every record before
// it. The cells are the record's strings, whose bytes the reader does
// not reuse; only the record slice is its own.
func (l *csvLoad) fill(b *csvBatch) error {
	width := len(l.t.cols)
	b.first, b.n = l.next, 0
	for b.n < l.rows {
		var rec []string
		if l.next <= len(l.ahead) {
			rec = l.ahead[l.next-1]
		} else {
			var err error
			if rec, err = l.cr.Read(); err == io.EOF {
				return err
			} else if err != nil {
				return fmt.Errorf("storage: reading csv for %s: %w", l.name, err)
			}
		}
		copy(b.cells[b.n*width:], rec)
		b.n++
		l.next++
	}
	return nil
}

// parse pushes b's cells of the given columns, in ascending order, into
// their vectors and returns the cell of the lowest row, then the lowest
// column, that does not parse, or nil. No column reads past a row that
// has already failed: a later cell cannot be the first.
func (l *csvLoad) parse(b *csvBatch, cols []int) *cellError {
	width := len(l.t.cols)
	var bad *cellError
	end := b.n
	for _, c := range cols {
		def, col := l.t.schema[c], l.t.cols[c]
		for i := 0; i < end; i++ {
			v, err := ParseValue(b.cells[i*width+c], def.Kind)
			if err != nil {
				bad, end = &cellError{row: b.first + i, col: c, err: err}, i
				break
			}
			col.push(v, true)
		}
	}
	return bad
}

// failure is the error a load returns for the cell that failed first.
func (l *csvLoad) failure(bad *cellError) error {
	return fmt.Errorf("storage: row %d col %s: %w", bad.row, l.t.schema[bad.col].Name, bad.err)
}

// inline parses every batch in the calling goroutine, starting with b,
// which fill has filled and returned err for.
func (l *csvLoad) inline(b *csvBatch, err error) error {
	cols := make([]int, len(l.t.cols))
	for c := range cols {
		cols[c] = c
	}
	for ; ; err = l.fill(b) {
		if bad := l.parse(b, cols); bad != nil {
			return l.failure(bad)
		}
		if err != nil {
			break
		}
	}
	if err != io.EOF {
		return err
	}
	for _, col := range l.t.cols {
		col.seal()
	}
	return nil
}

// fanOut loads the rest of the input with the calling goroutine reading
// batches, b the first, and workers column workers parsing them: worker
// w owns columns w, w+workers, … and parses every batch in row order.
// Reading stops once a worker has failed, and the error is the lowest
// cell any worker failed on, else the read error.
func (l *csvLoad) fanOut(b *csvBatch, workers int) error {
	// Each channel has room for every batch, so no send blocks: the
	// reader waits only for a batch to come back free.
	free := make(chan *csvBatch, batchesInFlight)
	for range batchesInFlight - 1 {
		free <- l.newBatch()
	}
	ins := make([]chan *csvBatch, workers)
	bads := make([]*cellError, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := range ins {
		var cols []int
		for c := w; c < len(l.t.cols); c += workers {
			cols = append(cols, c)
		}
		ins[w] = make(chan *csvBatch, batchesInFlight)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := range ins[w] {
				if bads[w] == nil {
					if bads[w] = l.parse(b, cols); bads[w] != nil {
						failed.Store(true)
					}
				}
				if b.left.Add(-1) == 0 {
					free <- b
				}
			}
			if bads[w] == nil {
				for _, c := range cols {
					l.t.cols[c].seal()
				}
			}
		}(w)
	}
	var err error
	for {
		if b.n > 0 {
			b.left.Store(int32(workers))
			for _, in := range ins {
				in <- b
			}
		}
		if err != nil || failed.Load() {
			break
		}
		b = <-free
		err = l.fill(b)
	}
	for _, in := range ins {
		close(in)
	}
	wg.Wait()
	var first *cellError
	for _, bad := range bads {
		if bad != nil && (first == nil || bad.row < first.row || bad.row == first.row && bad.col < first.col) {
			first = bad
		}
	}
	if first != nil {
		return l.failure(first)
	}
	if err != io.EOF {
		return err
	}
	return nil
}

// WriteCSV serializes the table as CSV with a header row. NULLs are
// written as empty fields.
func WriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema().Names()); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	for r := 0; r < t.NumRows(); r++ {
		for c := 0; c < t.NumCols(); c++ {
			v := t.At(r, c)
			if v.IsNull() {
				rec[c] = ""
			} else {
				rec[c] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
