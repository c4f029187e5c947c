package transport

// PendingRequests reports block requests still being reassembled.
func (e *Endpoint) PendingRequests() int { return len(e.reqAsm) }
