package perfbench

import scala.collection.mutable.ArrayBuffer

/** A fixed kernel owned by the benchmark: small dense matrix products into
  * fresh arrays (the pattern of the nn layers) and a Dijkstra search with a
  * binary heap over a fixed random graph (the pattern of the geo layers).
  * It uses primitive arrays and classes of its own only, so nothing the
  * program runs can change how the JIT compiles it. Its duration tracks how
  * fast the machine runs at that moment.
  */
object Reference {
  private val D = 32
  private val w = Array.tabulate(D * D)(i => ((i * 7919) % 101) / 101.0 - 0.5)
  private val x = Array.tabulate(8 * D)(i => ((i * 104729) % 97) / 97.0 - 0.5)
  private val Nodes = 600
  private val Deg = 4
  private val (adj, len) = {
    val r = new scala.util.Random(3L)
    (Array.fill(Nodes * Deg)(r.nextInt(Nodes)), Array.fill(Nodes * Deg)(50.0 + r.nextDouble() * 400))
  }
  @volatile private var sink = 0.0

  private def kernel(): Double = {
    var acc = 0.0
    var rep = 0
    while (rep < 12) {
      val y = new Array[Double](8 * D)
      var i = 0
      while (i < 8) {
        var k = 0
        while (k < D) {
          val xik = x(i * D + k)
          var j = 0
          while (j < D) { y(i * D + j) += xik * w(k * D + j); j += 1 }
          k += 1
        }
        i += 1
      }
      acc += y(rep)
      rep += 1
    }
    // Lazy-deletion Dijkstra from node 0 with an array binary heap.
    val dist = Array.fill(Nodes)(Double.PositiveInfinity)
    val hk = new Array[Double](Nodes * Deg + 1)
    val hv = new Array[Int](Nodes * Deg + 1)
    var size = 0
    def push(k: Double, v: Int): Unit = {
      var c = size; size += 1
      while (c > 0 && hk((c - 1) / 2) > k) { hk(c) = hk((c - 1) / 2); hv(c) = hv((c - 1) / 2); c = (c - 1) / 2 }
      hk(c) = k; hv(c) = v
    }
    dist(0) = 0.0
    push(0.0, 0)
    while (size > 0) {
      val d = hk(0); val u = hv(0)
      size -= 1
      val lk = hk(size); val lv = hv(size)
      var c = 0
      var done = false
      while (!done) {
        val l = 2 * c + 1
        if (l >= size) done = true
        else {
          val m = if (l + 1 < size && hk(l + 1) < hk(l)) l + 1 else l
          if (hk(m) < lk) { hk(c) = hk(m); hv(c) = hv(m); c = m } else done = true
        }
      }
      hk(c) = lk; hv(c) = lv
      if (d <= dist(u)) {
        var e = u * Deg
        while (e < (u + 1) * Deg) {
          val nd = d + len(e)
          if (nd < dist(adj(e))) { dist(adj(e)) = nd; push(nd, adj(e)) }
          e += 1
        }
      }
    }
    acc + dist(Nodes - 1)
  }

  /** One run of the kernel; returns its duration in ns. */
  def timeOnce(): Long = {
    val t0 = System.nanoTime()
    sink = kernel()
    System.nanoTime() - t0
  }
}

/** Samples of the reference kernel's duration with the time they were
  * taken. Measured durations are reported in reference-seconds: seconds
  * scaled by `NominalNs` over the median kernel time sampled around the
  * measured interval. When the machine runs at its nominal speed a
  * reference-second is a second; when other processes slow it down, the
  * kernel slows with the measured code and the scaled duration stays put.
  */
final class SpeedControl {
  private val at = ArrayBuffer.empty[Long]
  private val ns = ArrayBuffer.empty[Long]

  def sample(k: Int = 1): Unit = (1 to k).foreach { _ =>
    ns += Reference.timeOnce()
    at += System.nanoTime()
  }

  /** Run the kernel until the JIT has compiled it. */
  def warm(): Unit = (1 to 1000).foreach(_ => Reference.timeOnce())

  /** Reference-seconds per second over [t0, t1], from the samples taken
    * within `marginNs` of that interval.
    */
  def factor(t0: Long, t1: Long, marginNs: Long): Double = {
    val near = at.indices.filter(i => at(i) >= t0 - marginNs && at(i) <= t1 + marginNs).map(ns(_).toDouble)
    require(near.nonEmpty, "no reference samples around the measured interval")
    SpeedControl.NominalNs / Stats.median(near)
  }

  /** Reference-seconds per second over all samples so far. */
  def runFactor: Double = SpeedControl.NominalNs / medianNs

  def medianNs: Double = Stats.median(ns.map(_.toDouble).toSeq)
}

object SpeedControl {
  /** The kernel's typical median time on a 4-vCPU Xeon VM at 2.1 GHz,
    * where the bounds were set.
    */
  val NominalNs = 130_000.0

}
