package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteSeriesCSV writes a generic numeric table: header names plus rows of
// float columns. Ragged rows are rejected.
func WriteSeriesCSV(w io.Writer, header []string, rows [][]float64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write csv header: %w", err)
	}
	record := make([]string, len(header))
	for i, row := range rows {
		if len(row) != len(header) {
			return fmt.Errorf("dataset: csv row %d has %d columns, want %d", i, len(row), len(header))
		}
		for j, v := range row {
			record[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("dataset: write csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
