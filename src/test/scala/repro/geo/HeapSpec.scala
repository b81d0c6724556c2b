package repro.geo

import java.util.PriorityQueue
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** [[Heap]] pops the entries `java.util.PriorityQueue` pops under
  * `Double.compare` on the key, in the same order, ties included, for the
  * keys its callers give it: non-negative, never NaN, never -0.0.
  */
class HeapSpec extends AnyFunSuite {

  /** Pop sequences of `Heap` and `PriorityQueue` over one random run of adds
    * and polls (with a `clear` now and then), as (key bits, value) pairs.
    */
  private def runs(seed: Int): (Seq[(Long, Int)], Seq[(Long, Int)]) = {
    val rnd = new Random(seed)
    // Few distinct keys, so most keys tie; +0.0 among them.
    val pool = Array(0.0, Double.MinPositiveValue, 0.5, 1.0, 1.0 + 1e-16, 2.0, 3.25, 1e9) ++
      Array.fill(4)(rnd.nextDouble() * 10)
    val heap = new Heap
    val queue = new PriorityQueue[(Double, Int)](11, (a, b) => java.lang.Double.compare(a._1, b._1))
    val got = Seq.newBuilder[(Long, Int)]; val want = Seq.newBuilder[(Long, Int)]
    def pop(): Unit = {
      got += ((java.lang.Double.doubleToRawLongBits(heap.peekKey), heap.poll()))
      val (k, v) = queue.poll()
      want += ((java.lang.Double.doubleToRawLongBits(k), v))
    }
    var next = 0
    (1 to 3000).foreach { _ =>
      val r = rnd.nextInt(100)
      if (r < 55 || heap.isEmpty) {
        val key = pool(rnd.nextInt(pool.length))
        heap.add(key, next); queue.add((key, next)); next += 1
      } else if (r < 99) pop()
      else { heap.clear(); queue.clear() }
      assert(heap.size == queue.size)
    }
    while (!heap.isEmpty) pop()
    assert(queue.isEmpty)
    (got.result(), want.result())
  }

  test("min-heap pops what PriorityQueue under Double.compare pops, ties in the same order") {
    (1 to 20).foreach { seed =>
      val (got, want) = runs(seed)
      assert(got.length > 1000)
      assert(got == want, s"seed $seed")
    }
  }
}
