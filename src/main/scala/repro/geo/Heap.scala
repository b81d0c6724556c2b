package repro.geo

/** Binary min-heap of (key, value) entries on two primitive arrays. Its
  * sift-up and sift-down are those of `java.util.PriorityQueue` ordered by
  * `java.lang.Double.compare` on the key, so entries with equal keys leave
  * in the same order as they would from that queue.
  *
  * Keys must be non-negative, never NaN and never -0.0 (every caller's key
  * is a sum of squares of non-negative offsets, or a sum from 0.0 of lengths
  * or costs). On such keys `<` orders as `Double.compare` does, so the heap
  * compares with it.
  */
private[geo] final class Heap {
  private var keys = new Array[Double](64)
  private var values = new Array[Int](64)
  private var n = 0

  def size: Int = n
  def isEmpty: Boolean = n == 0

  /** Empties the heap; its capacity stays. */
  def clear(): Unit = n = 0

  /** The first entry's key; the heap must not be empty. */
  def peekKey: Double = keys(0)

  def add(key: Double, value: Int): Unit = {
    if (n == keys.length) {
      keys = java.util.Arrays.copyOf(keys, 2 * n)
      values = java.util.Arrays.copyOf(values, 2 * n)
    }
    var k = n
    n += 1
    var moving = true
    while (moving && k > 0) {
      val parent = (k - 1) >>> 1
      if (!(key < keys(parent))) moving = false
      else { keys(k) = keys(parent); values(k) = values(parent); k = parent }
    }
    keys(k) = key; values(k) = value
  }

  /** Removes the first entry and returns its value. */
  def poll(): Int = {
    val top = values(0)
    n -= 1
    val last = n
    if (last > 0) {
      val key = keys(last); val value = values(last)
      val half = last >>> 1
      var k = 0
      var moving = true
      while (moving && k < half) {
        var child = 2 * k + 1
        val right = child + 1
        if (right < last && keys(right) < keys(child)) child = right
        if (!(keys(child) < key)) moving = false
        else { keys(k) = keys(child); values(k) = values(child); k = child }
      }
      keys(k) = key; values(k) = value
    }
    top
  }
}
