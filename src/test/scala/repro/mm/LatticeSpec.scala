package repro.mm

import java.lang.Double.doubleToRawLongBits
import org.scalatest.funsuite.AnyFunSuite
import repro.geo.{ReferenceSearch, ShortestPath}
import repro.traj.{Datasets, TrajGen}
import scala.collection.mutable

class LatticeSpec extends AnyFunSuite {

  test("travel equals directedDist over A* unbounded and over the boxed bounded dijkstra, bit for bit, on every city") {
    // Below MMA's bound (2.5 x the longest gap + 1500 m), which cuts no pair
    // of these trajectories; 1000 m leaves about a third of them past it.
    val bound = 1000.0
    var pairs = 0
    val seen = mutable.Set.empty[String]
    Seq("PT", "XA", "BJ", "CD").foreach { city =>
      val net = Datasets(city).net
      val fromExit = mutable.Map.empty[Int, Array[Double]] // boxed bounded dijkstra, per exit node
      TrajGen.generateLocal(net, Datasets(city).gen, 12, seed = 5).foreach { t =>
        Seq(8 -> Double.PositiveInfinity, 10 -> bound).foreach { case (k, b) =>
          val lat = new Lattice(net, t, k, b)
          lat.pts.indices.foreach { i =>
            val c = net.candidates(lat.pts(i), k)
            assert(lat.ids(i).toSeq == c.ids.toSeq && lat.dists(i).toSeq == c.dists.toSeq, s"$city t=${t.id} i=$i")
            assert(lat.ratios(i).toSeq == c.ids.toSeq.map(net.projectRatio(lat.pts(i), _)))
          }
          for (i <- 0 until lat.pts.length - 1; a <- lat.ids(i).indices; bb <- lat.ids(i + 1).indices) {
            val (sa, sb) = (lat.ids(i)(a), lat.ids(i + 1)(bb))
            val (exit, entrance) = (net.segments(sa).to, net.segments(sb).from)
            val nodeDist =
              if (b.isPosInfinity) ShortestPath.aStar(net, exit, entrance)
              else fromExit.getOrElseUpdate(exit, ReferenceSearch.dijkstra(net, exit, b))(entrance)
            val want = ShortestPath.directedDist(net, sa, lat.ratios(i)(a), sb, lat.ratios(i + 1)(bb), nodeDist)
            assert(doubleToRawLongBits(lat.travel(i, a, bb)) == doubleToRawLongBits(want),
              s"$city t=${t.id} k=$k i=$i a=$a b=$bb")
            pairs += 1
            if (!b.isPosInfinity)
              seen += (if (nodeDist <= b) "exact" else if (nodeDist.isPosInfinity) "inf" else "tentative")
          }
        }
      }
    }
    assert(pairs > 10000)
    // The bound cuts: some entrances lie within it, some one segment past it, some beyond.
    assert(seen == Set("exact", "tentative", "inf"))
  }
}
