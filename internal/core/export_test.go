package core

// ResetColdMemo empties the cold equal-budget memo, so that a test counts
// the searches a fresh process would run, whatever ran before it.
func ResetColdMemo() {
	coldMemo.mu.Lock()
	defer coldMemo.mu.Unlock()
	coldMemo.ring, coldMemo.next = nil, 0
}
