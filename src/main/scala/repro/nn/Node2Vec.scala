package repro.nn

import repro.geo.RoadNetwork
import scala.util.Random

/** Node2Vec (paper ref [43]) over the *segment* graph: random walks along
  * segment successors + skip-gram with negative sampling, giving each road
  * segment a d-dimensional embedding that reflects its connectivity. Used
  * to initialise the candidate-segment embedding table of MMA (Eq. 1) and
  * as the graph signal of the GraphMM baseline.
  *
  * Plain SGD on the SGNS objective (no autodiff needed — gradients are
  * closed-form); p=q=1 (DeepWalk-style transition), which is the paper's
  * default-parameter regime and sufficient for connectivity structure.
  */
object Node2Vec {

  private final val WalkLen = 12
  private final val Window = 3
  private final val Negatives = 6  // negative samples per positive pair
  private final val Lr = 0.025     // first epoch's SGD rate, then x0.7 per epoch

  def train(net: RoadNetwork, dim: Int, walksPerSeg: Int = 4, epochs: Int = 2,
            seed: Long = 11L): Tensor = {
    val n = net.numSegments
    val rnd = new Random(seed)
    val win = Array.fill(n * dim)((rnd.nextDouble() - 0.5) / dim)
    val wout = Array.fill(n * dim)((rnd.nextDouble() - 0.5) / dim)

    def walk(start: Int): Array[Int] = {
      val w = new Array[Int](WalkLen)
      var cur = start
      var i = 0
      while (i < WalkLen) {
        w(i) = cur
        val nxt = net.nextSegments(cur)
        cur = if (nxt.isEmpty) start else nxt(rnd.nextInt(nxt.length))
        i += 1
      }
      w
    }

    var lrNow = Lr
    def sgnsPair(center: Int, context: Int, label: Double, gradCenter: Array[Double]): Unit = {
      var dot = 0.0
      var j = 0
      while (j < dim) { dot += win(center * dim + j) * wout(context * dim + j); j += 1 }
      val p = 1.0 / (1.0 + math.exp(-dot))
      val g = lrNow * (label - p)
      j = 0
      while (j < dim) {
        gradCenter(j) += g * wout(context * dim + j)
        wout(context * dim + j) += g * win(center * dim + j)
        j += 1
      }
    }

    val gradCenter = new Array[Double](dim)
    var ep = 0
    while (ep < epochs) {
      var s = 0
      while (s < n) {
        var wk = 0
        while (wk < walksPerSeg) {
          val w = walk(s)
          var i = 0
          while (i < WalkLen) {
            val lo = math.max(0, i - Window); val hi = math.min(WalkLen - 1, i + Window)
            var c = lo
            while (c <= hi) {
              if (c != i) {
                java.util.Arrays.fill(gradCenter, 0.0)
                sgnsPair(w(i), w(c), 1.0, gradCenter)
                var k = 0
                while (k < Negatives) {
                  sgnsPair(w(i), rnd.nextInt(n), 0.0, gradCenter)
                  k += 1
                }
                var j = 0
                while (j < dim) { win(w(i) * dim + j) += gradCenter(j); j += 1 }
              }
              c += 1
            }
            i += 1
          }
          wk += 1
        }
        s += 1
      }
      ep += 1
      lrNow *= 0.7
    }
    new Tensor(n, dim, win)
  }
}
