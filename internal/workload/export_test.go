package workload

// FileCount reports how many files fit the device.
func (w *Webserver) FileCount() int { return len(w.fileSectors) }
