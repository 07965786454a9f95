// §8.2.1 observes that the sketched single-while-loop Dequeue admits
// several correct implementations with "incomparable performance" —
// e.g. one that advances prevHead lazily and one that advances it
// during the scan — and §8.3.1 suggests producing many candidates and
// picking the best by measurement (autotuning). This example uses
// Enumerate to print several distinct verified Dequeue implementations
// from one sketch.
//
//	go run ./examples/dequeuevariants
package main

import (
	"fmt"
	"log"

	"psketch"
)

const src = `
struct QueueEntry {
	QueueEntry next = null;
	int stored;
	int taken = 0;
}

QueueEntry head0;
QueueEntry prevHead;
QueueEntry tail;
int[3] results;

void Enqueue(int v) {
	QueueEntry tmp = null;
	QueueEntry newEntry = new QueueEntry(v);
	tmp = AtomicSwap(tail, newEntry);
	tmp.next = newEntry;
}

int Dequeue() {
	QueueEntry tmp = null;
	int taken = 1;
	while (taken == 1) {
		reorder {
			tmp = {| prevHead(.next)?(.next)? |};
			if (tmp == null) { return 0 - 1; }
			prevHead = {| (tmp|prevHead)(.next)? |};
			if (tmp.taken == 0) { taken = AtomicSwap(tmp.taken, 1); }
		}
	}
	return tmp.stored;
}

harness void Main() {
	head0 = new QueueEntry(0);
	head0.taken = 1;
	prevHead = head0;
	tail = head0;
	Enqueue(8);
	results[0] = Dequeue();
	assert results[0] == 8;
	fork (t; 2) {
		if (t == 0) { Enqueue(1); results[1] = Dequeue(); }
		if (t == 1) { Enqueue(2); results[2] = Dequeue(); }
	}
	QueueEntry n = head0;
	int cnt = 0;
	int tcnt = 0;
	bool[12] takenv;
	while (n.next != null) {
		n = n.next;
		cnt = cnt + 1;
		if (n.taken == 1) { tcnt = tcnt + 1; takenv[n.stored] = true; }
	}
	assert cnt == 3;
	assert tail == n;
	assert prevHead.taken == 1;
	int succ = 0;
	if (results[0] != 0 - 1) { succ = succ + 1; assert takenv[results[0]] == true; }
	if (results[1] != 0 - 1) { succ = succ + 1; assert takenv[results[1]] == true; }
	if (results[2] != 0 - 1) { succ = succ + 1; assert takenv[results[2]] == true; }
	assert tcnt == succ;
}
`

func main() {
	sk, err := psketch.Compile(src, "Main", psketch.Options{IntWidth: 6, LoopBound: 5, MaxSolutions: 8})
	if err != nil {
		log.Fatal(err)
	}
	rs, err := sk.Enumerate()
	if err != nil {
		log.Fatal(err)
	}
	// Different hole assignments can fold to the same program text
	// (e.g. two insertion positions encoding one statement order), so
	// deduplicate on the resolved code.
	seen := map[string]bool{}
	n := 0
	for _, r := range rs {
		code, err := sk.ResolveFunc(r.Candidate, "Dequeue")
		if err != nil {
			log.Fatal(err)
		}
		if seen[code] {
			continue
		}
		seen[code] = true
		n++
		fmt.Printf("--- variant %d (%d iterations) ---\n%s\n", n, r.Stats.Iterations, code)
	}
	fmt.Printf("%d distinct verified Dequeue implementations\n", n)
}
