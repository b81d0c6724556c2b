package repro.mm

import repro.geo.{RoadNetwork, RoutePlanner}
import repro.traj.Traj
import scala.util.Random

/** LHMM (paper ref [11]): an HMM whose emission probabilities are enhanced
  * by knowledge learned from data. The learned component here is a logistic
  * model over per-candidate features (perpendicular distance + the four
  * directional cosines); its log-odds are added to the Gaussian emission of
  * the base HMM (FMM's, with its constants), while transitions stay
  * Newson-Krumm. Trained with plain SGD on the candidate classification
  * labels of the training split.
  */
final class Lhmm(
    net: RoadNetwork,
    protected val planner: RoutePlanner,
    val weights: Array[Double] = new Array[Double](6), // 5 feats + bias
) extends PointMatcher {
  val name = "LHMM"

  /** Features of candidate `sid` at distance `dist` from point i. */
  private def feats(t: Traj, i: Int, sid: Int, dist: Double): Array[Double] =
    math.exp(-dist / 25.0) +: t.dirCosines(i, net.segments(sid))

  private def logOdds(f: Array[Double]): Double = {
    var z = weights(5)
    var j = 0
    while (j < 5) { z += weights(j) * f(j); j += 1 }
    z
  }

  def matchPoints(t: Traj): Array[Int] =
    HmmMatcher.viterbi(net, t, (i, sid, dist) => logOdds(feats(t, i, sid, dist)))
}

object Lhmm {
  /** Fit the logistic emission weights by 3 epochs of SGD (rate 0.1) on the
    * labels of the HMM's candidates.
    */
  def train(net: RoadNetwork, planner: RoutePlanner, trajs: IndexedSeq[Traj]): Lhmm = {
    val w = new Array[Double](6)
    val m = new Lhmm(net, planner, weights = w)
    val rnd = new Random(47L)
    (1 to 3).foreach { _ =>
      rnd.shuffle(trajs).foreach { t =>
        t.sparse.indices.foreach { i =>
          val c = net.candidates(t.sparse(i).xy, HmmMatcher.K)
          c.ids.indices.foreach { k =>
            val sid = c.ids(k)
            val f = m.feats(t, i, sid, c.dists(k))
            val label = if (sid == t.sparseTruthSeg(i)) 1.0 else 0.0
            val g = 0.1 * (label - 1.0 / (1.0 + math.exp(-m.logOdds(f))))
            var j = 0
            while (j < 5) { w(j) += g * f(j); j += 1 }
            w(5) += g
          }
        }
      }
    }
    m
  }
}
